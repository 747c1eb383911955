"""Security-loading optimization.

Single-risk loadings admit closed forms under logit demand: the
ruin-minimizing loading solves d/dtheta of lambda*p(theta)/c(theta) = 0
directly, and the profit-maximizing loading is the unique positive root
of 1 + e^(b0+b1*t) - b1*t*e^(b0+b1*t).  Joint two-risk loadings have no
closed form; they are found by sweeping the company ruin probability on
a loading grid and polishing the grid argmin with L-BFGS-B on forward
differences, each point and its neighbours solved as one kernel batch.
The sweep solves the whole box, or for ``reproduce fig4``/``fig5`` a coarse
grid and a window around its argmin (:func:`_box_search`, a heuristic), a
search that those figures run beside their loading table, in a forked worker
wherever a second CPU can take it.

Two entries sweep loadings on a reserve grid of step ``grid_step``:
:func:`sweep_single_loading` for one risk and :func:`company_ruin_at`
for a batch of two-risk loading pairs (a common loading t is the pair
(t, t)).  Both give ruin as one table of shape (loadings, reserves): a
row per loading and a column per reserve.  :func:`optimize_joint_ruin`
builds the company sweep behind :func:`company_ruin_at` once, and runs
both its loading sweep and its refinement on it.

The sweeps exploit the structure of the company claim model: the grid
recursion coefficients are linear in the per-component exposure weights,
so one set of component tail integrals serves every loading pair, and
whole batches of loadings advance together through the same survival
kernel (:func:`lundberg.ruin.survival_batch`) that solves single curves.
Sweeps of at least 10^7 curve values times log2 of the node count (about
three chunks) run their chunks in forked workers, one per CPU
(:mod:`lundberg._pool`); every value is the same bytes either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as sciopt

from . import _pool
from .copulas import OrdinaryCopula
from .demand import DemandSpec, acquisition_shares, joint_share, shares_from_take_rates
from .distributions import integrated_tails
from .errors import AccuracyError, ValidationError, _count, _nonnegative, _positive, _step_grid
from .market import (
    Decomposition, MarketSpec, _company_claim_model, _company_severities, _company_streams, _premium_rate,
    company_exposure, decompose,
)
from .ruin import (
    SolverConfig, _recursion_coefficients, independence_gap_bound, solve_survival, survival_batch,
)

__all__ = [
    "LoadingResult",
    "ruin_optimal_loading",
    "profit_optimal_loading",
    "joint_expected_profit",
    "weighted_average_loading",
    "optimize_joint_ruin",
    "optimize_joint_profit",
    "company_ruin_at",
    "sweep_single_loading",
    "size_scaling_experiment",
]

_SWEEP_CELLS = 1 << 16  # rows x nodes per kernel call; bounds the FFT temporaries of in-process sweeps
_STRIDE, _REACH = 5, 5  # the window search's coarse stride and window half-width, in loadings


@dataclass
class LoadingResult:
    """Outcome of a loading optimization.

    ``loading`` is a scalar for single-risk and common-mode searches and
    a pair for separate loadings.  ``value`` is the criterion value at
    the optimum (ruin probability at the reference reserve, or expected
    profit per unit time).  ``grid_loading`` keeps the pre-refinement
    sweep argmin for grid-step comparisons, and ``sweep`` the columns of
    that sweep: ``theta`` (common) or ``theta1``/``theta2`` (separate),
    then ``ruin``, ``profit`` and ``feasible``, a row per loading solved in
    solve order (empty where no sweep ran).
    The joint ruin search reports the gridded model's ``expected_profit``
    (see :func:`company_ruin_at`).
    """

    loading: float | tuple
    value: float
    expected_profit: float | None = None
    grid_loading: float | tuple | None = None
    diagnostics: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)


def ruin_optimal_loading(demand: DemandSpec, intensity: float, mean_severity: float) -> LoadingResult:
    """Closed-form ruin-minimizing loading for a single risk.

    theta = (ln(lambda*E[Y] / (r*b1)) - b0) / b1.  The ruin probability
    is strictly increasing in alpha(theta) = lambda*p(theta)/c(theta),
    so minimizing alpha minimizes ruin at every reserve; the returned
    ``value`` is alpha at the optimum.  A local check confirms the
    stationary point is a minimum of alpha.
    """
    lam_mean = _nonnegative("claim intensity", intensity) * _positive("mean severity", mean_severity)
    floor = demand.fixed_cost * demand.beta1 * np.exp(demand.beta0)
    if lam_mean < floor or demand.fixed_cost <= 0:
        raise ValidationError(
            "no interior ruin-optimal loading: need lambda*E[Y] >= r*beta1*exp(beta0) with r > 0"
        )
    theta = (np.log(lam_mean / (demand.fixed_cost * demand.beta1)) - demand.beta0) / demand.beta1

    def alpha(t):
        return intensity * demand.take_rate(t) / demand.premium_rate(intensity, mean_severity, t)

    a_star = float(alpha(theta))
    delta = 1e-4
    if not (a_star <= alpha(theta - delta) and a_star <= alpha(theta + delta)):
        raise AccuracyError(f"loading {theta:g} failed the local minimum check")
    return LoadingResult(float(theta), a_star, expected_profit=float(
        theta * intensity * demand.take_rate(theta) * mean_severity - demand.fixed_cost))


def profit_optimal_loading(demand: DemandSpec, intensity: float, mean_severity: float) -> LoadingResult:
    """Profit-maximizing loading for a single risk.

    Solves 1 + w - b1*t*w = 0 with w = e^(b0+b1*t), the stationarity
    condition of t * lambda * p(t) * E[Y]; the root does not depend on
    lambda, E[Y], or the fixed cost, which only shift the profit level.
    """
    _nonnegative("claim intensity", intensity)
    _positive("mean severity", mean_severity)
    b0, b1 = demand.beta0, demand.beta1

    def f(t):
        w = np.exp(b0 + b1 * t)
        return 1.0 + w - b1 * t * w

    lo = 1.0 / b1
    hi = lo + 20.0
    if not (f(lo) > 0 > f(hi)):
        raise AccuracyError(f"no sign change for the profit root in [{lo:g}, {hi:g}]")
    theta = float(sciopt.brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16))
    profit = float(theta * intensity * demand.take_rate(theta) * mean_severity - demand.fixed_cost)
    return LoadingResult(theta, profit, expected_profit=profit, diagnostics={"residual": float(f(theta))})


def joint_expected_profit(theta1, theta2, demands, intensities, mean_severities) -> float:
    """Expected underwriting profit per unit time of a two-risk company.

    theta1*p1*lambda1*E[Y1] + theta2*p2*lambda2*E[Y2]: the value depends
    only on the marginal claim models, never on claim or acquisition
    dependence.  Fixed costs are excluded; they shift the level without
    moving any optimum.
    """
    d1, d2 = demands
    l1, l2 = intensities
    m1, m2 = mean_severities
    return float(
        theta1 * d1.take_rate(theta1) * l1 * m1 + theta2 * d2.take_rate(theta2) * l2 * m2
    )


def weighted_average_loading(theta1: float, theta2: float, p1_ref: float, p2_ref: float) -> float:
    """Exposure-weighted average of two loadings.

    Weights are the take rates at a stated reference loading; a useful
    predictor of the common-loading optimum of an aggregated pair.
    """
    total = _positive("reference take rate sum", _nonnegative("reference take rate", p1_ref)
                      + _nonnegative("reference take rate", p2_ref))
    return (theta1 * p1_ref + theta2 * p2_ref) / total


def _loading_grid(low: float, high: float, step: float) -> np.ndarray:
    """Loadings ``low, low + step, ...`` as ``np.arange`` spaces them, none past ``high``.

    A step that divides the box ends on ``high`` (within 1e-9 of a step);
    any other step ends at the last loading below it.  A step that is not
    positive and finite, or a reversed or infinite box, raises ``ValidationError``.
    """
    _positive("sweep step", step)
    _nonnegative("loading box width", high - low)
    with _step_grid("sweep step", step):
        return np.arange(low, high + step / 2, step)[: int((high - low) / step + 1e-9) + 1]


def _sweep_argmin(ruin: np.ndarray, feasible: np.ndarray):
    """Row of the smallest feasible, finite value in each column of ``ruin``; the first wins a tie.

    Returns the rows and the mask of usable points.
    """
    usable = feasible[:, None] & np.isfinite(ruin)
    return np.where(usable, ruin, np.inf).argmin(axis=0), usable


def _grid_points(*axes):
    """The row-major grid of ``axes``: a row per point, a column per axis."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _box_search(solve, thetas, k, window=False):
    """The points solved for the argmin of ``solve`` over the row-major box ``thetas`` ** ``k``.

    ``solve`` maps points (a row each) to (ruin of one column, profit, feasible).  Returns the
    points in solve order, ``solve``'s three results on them and the argmin's row (see
    :func:`_sweep_argmin`).  The full sweep solves every point.  With ``window``, every 5th
    loading a side is solved, then the +-5-loading window around that coarse argmin, clipped to
    the box, and the window's argmin is returned: the full sweep's bit for bit whenever that
    lies in the window, since every row is the same bits in any batch and both keep row-major
    order.  A heuristic, not a certificate: the full sweep runs instead when the two would not
    solve fewer points, when no coarse point is usable, or when the window's argmin lies on a
    window edge that is not a box edge.
    """
    n, axis = thetas.size, np.arange(0, thetas.size, _STRIDE)
    if window and axis.size ** k + min(n, 2 * _REACH + 1) ** k < n ** k:
        coarse = _grid_points(*[axis] * k)
        found = solve(thetas[coarse])
        (best,), usable = _sweep_argmin(found[0], found[2])
        if usable.any():
            low, high = np.maximum(coarse[best] - _REACH, 0), np.minimum(coarse[best] + _REACH, n - 1)
            near = _grid_points(*map(np.arange, low, high + 1))
            close = solve(thetas[near])
            (best,), _ = _sweep_argmin(close[0], close[2])
            edge = (near[best] == low) & (low > 0) | (near[best] == high) & (high < n - 1)
            if not edge.any():
                return (thetas[np.vstack([coarse, near])], tuple(map(np.concatenate, zip(found, close))),
                        len(coarse) + best)
    points = _grid_points(*[thetas] * k)
    found = solve(points)
    (best,), _ = _sweep_argmin(found[0], found[2])
    return points, found, best


def _sweep(tails, reserves, grid_step):
    """``sweep(coef, premium)``: loadings -> (ruin at ``reserves``, profit, feasible).

    A loading is a row of per-component claim intensities and a premium
    rate; the coefficients of ``tails`` serve every batch.  Infeasible rows
    carry ruin 1.0, rows outside the recursion's valid range NaN.  The feasible
    rows, packed into chunks of ``_SWEEP_CELLS`` curve values (at least a row),
    are jobs of ``_pool.map``.  A grid step that is not positive and finite, or
    a reserve that is negative or not finite, raises ``ValidationError``.
    """
    config = SolverConfig(grid_step, max(max(_nonnegative("reserve", r) for r in reserves), grid_step))
    n = config.n_cells
    coefficients = _recursion_coefficients(tails, config.nodes(), grid_step)
    node_idx = [int(round(r / grid_step)) for r in reserves]

    def sweep(coef, premium):
        profit = premium - coef @ coefficients[3]
        feasible = profit > 0
        chunk = max(_SWEEP_CELLS // (n + 1), 1)
        live = np.flatnonzero(feasible)
        jobs = [live[start : start + chunk] for start in range(0, live.size, chunk)]

        def chunk_ruin(live):
            vbar, ok = survival_batch(coef[live] / premium[live, None], coefficients)
            vals = 1.0 - np.clip(vbar[:, node_idx], 0.0, 1.0)
            vals[~ok] = np.nan
            return vals

        out = np.ones((coef.shape[0], len(node_idx)))
        work = live.size * (n + 1) * (n + 1).bit_length()  # O(n log n) a row
        for live, vals in zip(jobs, _pool.map(chunk_ruin, jobs, work)):
            out[live] = vals
        return out, profit, feasible

    return sweep


def _company_sweep(market, demands, acquisition, reserves, grid_step, decomposition):
    """Loading pairs -> (ruin at ``reserves``, profit, feasible); no loading moves a severity."""
    tails = [integrated_tails(s) for s in _company_severities(decomposition)]
    sweep = _sweep(tails, reserves, grid_step)

    def ruin_at(theta_pairs):
        t1, t2 = np.atleast_2d(np.asarray(theta_pairs, dtype=float)).T
        p1 = np.asarray(demands[0].take_rate(t1), dtype=float)
        p2 = np.asarray(demands[1].take_rate(t2), dtype=float)
        both = joint_share(acquisition, p1, p2)
        streams = _company_streams(decomposition, p1, p2, both)
        coef = np.column_stack([r for _, r in streams])
        return sweep(coef, np.asarray(_premium_rate(market, demands, t1, t2), dtype=float))

    return ruin_at


def company_ruin_at(
    market: MarketSpec,
    demands,
    acquisition: OrdinaryCopula,
    reserves,
    theta_pairs: np.ndarray,
    grid_step: float,
    decomposition: Decomposition,
):
    """Ruin probability at a list of reserves for a batch of P loading pairs.

    Returns (ruin, profit, feasible), ruin of shape (P, len(reserves)) with
    the reserves' columns in the order given; they snap to the nearest
    grid node of the market's ``decomposition``.  Infeasible pairs (premium
    at or below the expected claim rate) carry ruin 1.0, the certain
    value; pairs that destabilize the recursion return NaN.

    ``profit`` is the premium rate less the gridded model's mean claim
    rate.  Under claim dependence the cells carry their mass at the right
    end, about h/2 per claim, so it sits below the closed form of
    :func:`joint_expected_profit` less costs (1.25% at loading 0.4, h = 2).
    """
    ruin_at = _company_sweep(market, demands, acquisition, reserves, grid_step, decomposition)
    return ruin_at(theta_pairs)


def sweep_single_loading(demand, intensity, severity, reserves, thetas, grid_step):
    """Single-risk loading sweep: ruin at each reserve plus expected profit.

    Returns a dict with ``theta``, ``profit``, ``feasible``, the sorted
    ``reserves`` and ``ruin`` of shape (len(thetas), len(reserves)).  The
    same survival kernel as the two-risk sweeps runs with one severity
    component weighted by the demand-thinned intensity; points that
    leave the recursion's valid range carry NaN.
    """
    thetas = np.asarray(thetas, dtype=float)
    reserves = sorted(float(r) for r in np.atleast_1d(reserves))
    tails = integrated_tails(severity)
    coef = (np.asarray(demand.take_rate(thetas), dtype=float) * intensity)[:, None]
    premium = np.asarray(demand.premium_rate(intensity, tails.mean, thetas), dtype=float)
    ruin, profit, feasible = _sweep([tails], reserves, grid_step)(coef, premium)
    return {"theta": thetas, "profit": profit, "feasible": feasible, "reserves": reserves,
            "ruin": ruin}


def _forward_difference(values, bounds, step):
    """``x -> (f(x), gradient)``: ``values`` of x and its x.size forward neighbours in one call,
    stepped as scipy's 2-point ``approx_derivative(abs_step=step, bounds=bounds)`` steps."""
    lb, ub = np.array(bounds, dtype=float).T

    def objective(x):
        fallback = np.finfo(float).eps ** 0.5 * ((x >= 0) * 2.0 - 1.0) * np.maximum(1.0, np.abs(x))
        h = np.where((x + step) - x == 0, fallback, step)
        lower, upper = x - lb, ub - x
        fitting = np.abs(h) <= np.maximum(lower, upper)
        h = np.where(((x + h < lb) | (x + h > ub)) & fitting, -h, h)
        h = np.where(fitting, h, np.where(upper >= lower, upper, -lower))
        f = values(np.vstack([x, x + np.diag(h)]))
        return float(f[0]), (f[1:] - f[0]) / ((x + h) - x)

    return objective


def optimize_joint_ruin(
    market: MarketSpec,
    demands,
    acquisition: OrdinaryCopula,
    reserve: float,
    mode: str = "separate",
    grid_step: float = 2.0,
    box: tuple = (0.05, 1.0),
    sweep_step: float = 0.01,
    refine: bool = True,
    decomposition: Decomposition | None = None,
    *,
    window: bool = False,
) -> LoadingResult:
    """Minimize company ruin at a reserve over one or two loadings.

    A sweep over the search box locates the basin (plateau ties break
    toward the smallest loading); L-BFGS-B on forward differences at
    step 1e-3 then polishes the argmin, each point and its x.size neighbours
    one kernel batch (:func:`_forward_difference`, scipy's own iterates; a
    box of zero width has nothing to refine).  The refined point is kept
    whenever its value is finite and at most the grid value plus 1e-12,
    whatever the optimizer's success flag says: its line search can stop
    ``ABNORMAL`` at the objective's rounding floor after it has found a
    better point.  Otherwise the grid argmin is returned, and the
    diagnostic flag ``refined`` says which.
    Both modes search a vector of free loadings, one in common mode and
    two in separate mode (the row-major grid of the box), mapped to the
    loading pair (first, last).  One company sweep (:func:`_company_sweep`,
    the component tails and coefficient rows built once) serves both the
    loading sweep and the refinement, on the reserve grid of step
    ``grid_step``, which also discretizes the market when no
    ``decomposition`` is given.

    With ``window`` (``reproduce fig4``/``fig5``) the sweep solves a coarse
    grid and a window around its argmin, falling back to the whole box
    where that cannot be trusted (:func:`_box_search`); ``sweep`` and the
    diagnostics ``sweep_points``/``feasible_points`` cover the points solved.

    Raises:
        ValidationError: if every point of the box violates net profit,
            or the box or the sweep step fails :func:`_loading_grid`.
    """
    if mode not in ("common", "separate"):
        raise ValidationError(f"mode must be 'common' or 'separate', got {mode}")
    thetas = _loading_grid(*box, sweep_step)
    if decomposition is None:
        decomposition = decompose(market, grid_step)
    names = ["theta"] if mode == "common" else ["theta1", "theta2"]
    ruin_at = _company_sweep(market, demands, acquisition, [reserve], grid_step, decomposition)

    def solve(free):
        return ruin_at(free[:, [0, -1]])

    free, (ruin, profit, feasible), best = _box_search(solve, thetas, len(names), window)
    sweep = dict(zip(names, free.T), ruin=ruin[:, 0], profit=profit, feasible=feasible)

    def loading_of(x):
        return float(x[0]) if mode == "common" else (float(x[0]), float(x[1]))

    usable = feasible & np.isfinite(ruin[:, 0])
    if not usable.any():
        raise ValidationError("net profit condition fails everywhere in the search box")
    x = free[best]
    value = grid_value = float(ruin[best, 0])
    refined = False
    if refine and box[0] < box[1]:
        def values(points):
            r, _, feas = solve(points)
            return np.where(feas & np.isfinite(r[:, 0]), r[:, 0], 2.0)

        bounds = [(max(box[0], v - 2.0 * sweep_step), min(box[1], v + 2.0 * sweep_step)) for v in x]
        res = sciopt.minimize(
            _forward_difference(values, bounds, 1e-3), x0=x, jac=True, method="L-BFGS-B",
            bounds=bounds, options={"maxiter": 60, "ftol": 1e-12},
        )
        if np.isfinite(res.fun) and res.fun <= grid_value + 1e-12:
            x, value, refined = res.x, float(res.fun), True

    t1, t2 = float(x[0]), float(x[-1])
    exposure = company_exposure(
        market, acquisition_shares(acquisition, *demands, t1, t2), (t1, t2), demands, (reserve,),
        decomposition=decomposition,
    )
    return LoadingResult(
        loading_of(x), value, expected_profit=exposure.expected_profit,
        grid_loading=loading_of(free[best]),
        diagnostics={
            "refined": refined,
            "sweep_points": int(free.shape[0]),
            "feasible_points": int(np.count_nonzero(usable)),
            "grid_value": grid_value,
        },
        sweep=sweep,
    )


def optimize_joint_profit(
    demands,
    intensities,
    mean_severities,
    mode: str = "separate",
    box: tuple = (0.05, 1.0),
) -> LoadingResult:
    """Maximize expected profit over one or two loadings.

    Profit separates across risks, so the separate-mode optimum is the
    pair of single-risk roots; the common mode maximizes the summed
    profit curve numerically on the box (not reversed, finite).
    """
    _nonnegative("loading box width", box[1] - box[0])
    d1, d2 = demands
    l1, l2 = (_nonnegative("claim intensity", lam) for lam in intensities)
    m1, m2 = (_positive("mean severity", mean) for mean in mean_severities)
    fixed = d1.fixed_cost + d2.fixed_cost
    if mode == "separate":
        r1 = profit_optimal_loading(d1, l1, m1)
        r2 = profit_optimal_loading(d2, l2, m2)
        loading = (r1.loading, r2.loading)
        gross = joint_expected_profit(r1.loading, r2.loading, demands, intensities, mean_severities)
        return LoadingResult(loading, gross - fixed, expected_profit=gross - fixed, grid_loading=loading)
    if mode != "common":
        raise ValidationError(f"mode must be 'common' or 'separate', got {mode}")

    def negative(t):
        return -joint_expected_profit(t, t, demands, intensities, mean_severities)

    res = sciopt.minimize_scalar(negative, bounds=box, method="bounded", options={"xatol": 1e-8})
    theta = float(res.x)
    profit = -float(res.fun) - fixed
    return LoadingResult(theta, profit, expected_profit=profit, grid_loading=theta)


def size_scaling_experiment(
    acquisition: OrdinaryCopula,
    x0: float,
    theta: float,
    shares: np.ndarray,
    nodes_per_solve: int = 2000,
    *,
    decomposition: Decomposition,
) -> list:
    """Dependence error as company size shrinks.

    For each common market share p the company gets reserve
    x = x0 * size and premium (1 + theta) * size, where size is its
    expected claim cost per unit time.  Each row reports the measured
    |V - V_ind| at x, the a-priori dependence bound, and its small-share
    asymptote both * lambda_both * x0 / (1 + theta).
    """
    _positive("x0", x0)
    _positive("theta", theta)
    _count("nodes_per_solve", nodes_per_solve, 1)
    rows = []
    for p in np.asarray(shares, dtype=float):
        share = shares_from_take_rates(acquisition, float(p), float(p))
        lam_t, sev_t, lam_h, sev_h = _company_claim_model(decomposition, share)
        size = lam_t * sev_t.mean
        reserve = x0 * size
        premium = (1.0 + theta) * size
        h = reserve / nodes_per_solve
        cfg = SolverConfig(grid_step=h, x_max=reserve)
        v_dep = float(solve_survival(lam_t, sev_t, premium, cfg).ruin[-1])
        v_ind = float(solve_survival(lam_h, sev_h, premium, cfg).ruin[-1])
        gap = abs(v_dep - v_ind)
        bound = float(independence_gap_bound(
            share.both, decomposition.lambda_both, lam_t, premium, reserve))
        rows.append({
            "share": float(p),
            "both": share.both,
            "intensity": lam_t,
            "reserve": reserve,
            "premium_rate": premium,
            "ruin_dep": v_dep,
            "ruin_ind": v_ind,
            "gap": gap,
            "bound": bound,
            "asymptote": share.both * decomposition.lambda_both * x0 / (1.0 + theta),
            "gap_over_share_sum": gap / (2.0 * float(p)),
        })
    return rows
