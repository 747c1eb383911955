"""Security-loading optimization.

Single-risk loadings admit closed forms under logit demand: the
ruin-minimizing loading solves d/dtheta of lambda*p(theta)/c(theta) = 0
directly, and the profit-maximizing loading is the unique positive root
of 1 + e^(b0+b1*t) - b1*t*e^(b0+b1*t).  Joint two-risk loadings have no
closed form; they are found by sweeping the company ruin probability on
a loading grid and polishing the grid argmin with a quasi-Newton
refinement driven by finite differences.

The sweeps exploit the structure of the company claim model: the grid
recursion coefficients are linear in the per-component exposure weights,
so one set of component tail integrals serves every loading pair, and
whole batches of loadings advance together through the same survival
kernel (:func:`lundberg.ruin.survival_batch`) that solves single curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as sciopt

from .copulas import OrdinaryCopula
from .demand import DemandSpec, acquisition_shares, joint_share, shares_from_take_rates
from .distributions import integrated_tails
from .errors import AccuracyError, ValidationError
from .market import (
    Decomposition, MarketSpec, _company_claim_model, _company_streams, _premium_rate, company_exposure,
    decompose,
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
    "sweep_common_loading",
    "sweep_separate_loadings",
    "size_scaling_experiment",
]

_SWEEP_CELLS = 1 << 18  # rows x nodes per kernel call; bounds the FFT temporaries


@dataclass
class LoadingResult:
    """Outcome of a loading optimization.

    ``loading`` is a scalar for single-risk and common-mode searches and
    a pair for separate loadings.  ``value`` is the criterion value at
    the optimum (ruin probability at the reference reserve, or expected
    profit per unit time).  ``grid_loading`` keeps the pre-refinement
    sweep argmin for grid-step comparisons, and ``sweep`` the columns of
    that sweep (empty where no sweep ran).  The joint ruin search reports
    the gridded model's ``expected_profit`` (see :func:`company_ruin_at`).
    """

    criterion: str
    mode: str
    loading: float | tuple
    value: float
    reserve: float | None = None
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
    lam_mean = intensity * mean_severity
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
    return LoadingResult(
        criterion="ruin", mode="single", loading=float(theta), value=a_star,
        expected_profit=float(theta * intensity * demand.take_rate(theta) * mean_severity
                              - demand.fixed_cost),
    )


def profit_optimal_loading(demand: DemandSpec, intensity: float, mean_severity: float) -> LoadingResult:
    """Profit-maximizing loading for a single risk.

    Solves 1 + w - b1*t*w = 0 with w = e^(b0+b1*t), the stationarity
    condition of t * lambda * p(t) * E[Y]; the root does not depend on
    lambda, E[Y], or the fixed cost, which only shift the profit level.
    """
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
    return LoadingResult(
        criterion="profit", mode="single", loading=theta, value=profit,
        expected_profit=profit, diagnostics={"residual": float(f(theta))},
    )


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
    if p1_ref < 0 or p2_ref < 0 or p1_ref + p2_ref <= 0:
        raise ValidationError("reference take rates must be nonnegative with positive sum")
    return (theta1 * p1_ref + theta2 * p2_ref) / (p1_ref + p2_ref)


def _sweep_argmin(ruin: np.ndarray, feasible: np.ndarray):
    """Row of the smallest feasible, finite value in each column of ``ruin``; the first wins a tie.

    Returns the rows and the mask of usable points.
    """
    usable = feasible[:, None] & np.isfinite(ruin)
    return np.where(usable, ruin, np.inf).argmin(axis=0), usable


def _sweep_ruin(tails, coef, premium, feasible, reserves, grid_step):
    """Ruin at each reserve for a batch of loadings, one row per loading.

    ``coef`` holds each loading's per-component claim intensities and
    ``tails`` the components' integrated tails.  Infeasible rows carry
    ruin 1.0; rows that leave the recursion's valid range carry NaN.
    Loadings advance through the survival kernel in chunks of at most
    ``_SWEEP_CELLS`` curve values (and at least one row).
    """
    n = max(int(np.ceil(max(reserves) / grid_step - 1e-9)), 1)
    coefficients = _recursion_coefficients(tails, grid_step * np.arange(n + 1), grid_step)
    node_idx = [int(round(r / grid_step)) for r in reserves]
    ruin = np.ones((coef.shape[0], len(reserves)))
    chunk = max(_SWEEP_CELLS // (n + 1), 1)
    for start in range(0, coef.shape[0], chunk):
        live = np.nonzero(feasible[start : start + chunk])[0] + start
        if live.size == 0:
            continue
        vbar, ok = survival_batch(coef[live] / premium[live, None], coefficients, n)
        vals = 1.0 - np.clip(vbar[:, node_idx], 0.0, 1.0)
        vals[~ok] = np.nan
        ruin[live] = vals
    return ruin


def company_ruin_at(
    market: MarketSpec,
    demands,
    acquisition: OrdinaryCopula,
    reserve,
    theta_pairs: np.ndarray,
    grid_step: float,
    decomposition: Decomposition | None = None,
):
    """Ruin probability at one or more reserves for a batch of loadings.

    Returns (ruin, profit, feasible) with ruin of shape (P,) for a
    scalar reserve and (P, len(reserve)) otherwise.  Reserves snap to
    the nearest grid node.  Infeasible pairs (premium at or below the
    expected claim rate) carry ruin 1.0, the mathematically certain
    value; pairs that destabilize the recursion return NaN.

    ``profit`` is the premium rate less the gridded model's mean claim
    rate.  Under claim dependence the cells carry their mass at the right
    end, about h/2 per claim, so it sits below the closed form of
    :func:`joint_expected_profit` less costs (1.25% at loading 0.4, h = 2).
    """
    theta_pairs = np.atleast_2d(np.asarray(theta_pairs, dtype=float))
    scalar_reserve = np.isscalar(reserve)
    reserves = [float(reserve)] if scalar_reserve else [float(r) for r in reserve]
    if decomposition is None:
        decomposition = decompose(market, grid_step)
    d1, d2 = demands
    p1 = np.asarray(d1.take_rate(theta_pairs[:, 0]), dtype=float)
    p2 = np.asarray(d2.take_rate(theta_pairs[:, 1]), dtype=float)
    both = joint_share(acquisition, p1, p2)
    severities, rates = zip(*_company_streams(decomposition, p1, p2, p1 - both, p2 - both, both))
    tails = [integrated_tails(s) for s in severities]
    coef = np.column_stack(rates)
    premium = np.asarray(_premium_rate(market, demands, theta_pairs[:, 0], theta_pairs[:, 1]), dtype=float)
    profit = premium - coef @ np.array([t.mean for t in tails])
    feasible = profit > 0
    ruin = _sweep_ruin(tails, coef, premium, feasible, reserves, grid_step)
    if scalar_reserve:
        ruin = ruin[:, 0]
    return ruin, profit, feasible


def sweep_single_loading(demand, intensity, severity, reserves, thetas, grid_step):
    """Single-risk loading sweep: ruin at each reserve plus expected profit.

    Returns a dict with ``theta``, ``profit``, ``feasible``, and one ruin
    array per reserve under ``ruin`` (keyed by reserve).  The same
    survival kernel as the two-risk sweeps runs with a single severity
    component weighted by the demand-thinned intensity; points that
    leave the recursion's valid range carry NaN.
    """
    thetas = np.asarray(thetas, dtype=float)
    reserves = sorted(float(r) for r in np.atleast_1d(reserves))
    tails = integrated_tails(severity)
    coef = (np.asarray(demand.take_rate(thetas), dtype=float) * intensity)[:, None]
    premium = np.asarray(demand.premium_rate(intensity, tails.mean, thetas), dtype=float)
    profit = premium - coef[:, 0] * tails.mean
    feasible = profit > 0
    ruin = _sweep_ruin([tails], coef, premium, feasible, reserves, grid_step)
    return {"theta": thetas, "profit": profit, "feasible": feasible,
            "ruin": {r: ruin[:, j] for j, r in enumerate(reserves)}}


def sweep_common_loading(
    market, demands, acquisition, reserve, thetas, grid_step, decomposition=None
):
    """Common-loading ruin/profit sweep; returns a dict of columns."""
    thetas = np.asarray(thetas, dtype=float)
    pairs = np.column_stack([thetas, thetas])
    ruin, profit, feasible = company_ruin_at(
        market, demands, acquisition, reserve, pairs, grid_step, decomposition
    )
    return {"theta": thetas, "ruin": ruin, "profit": profit, "feasible": feasible}


def sweep_separate_loadings(
    market, demands, acquisition, reserve, thetas1, thetas2, grid_step, decomposition=None
):
    """Two-loading sweep over the grid thetas1 x thetas2 (row-major)."""
    t1, t2 = np.meshgrid(np.asarray(thetas1, float), np.asarray(thetas2, float), indexing="ij")
    pairs = np.column_stack([t1.ravel(), t2.ravel()])
    ruin, profit, feasible = company_ruin_at(
        market, demands, acquisition, reserve, pairs, grid_step, decomposition
    )
    return {
        "theta1": pairs[:, 0], "theta2": pairs[:, 1],
        "ruin": ruin, "profit": profit, "feasible": feasible,
    }


def optimize_joint_ruin(
    market: MarketSpec,
    demands,
    acquisition: OrdinaryCopula,
    reserve: float,
    mode: str = "separate",
    solver: SolverConfig | None = None,
    box: tuple = (0.05, 1.0),
    sweep_step: float = 0.01,
    refine: bool = True,
    decomposition: Decomposition | None = None,
) -> LoadingResult:
    """Minimize company ruin at a reserve over one or two loadings.

    A coarse sweep over the search box locates the basin (plateau ties
    break toward the smallest loading); a bounded quasi-Newton refinement
    with finite differences then polishes the argmin.  If the refinement
    fails to converge the grid argmin is returned with a diagnostic flag.
    Both modes search a vector of free loadings, one in common mode and
    two in separate mode, mapped to the loading pair (first, last).

    Raises:
        ValidationError: if every point of the box violates net profit.
    """
    if mode not in ("common", "separate"):
        raise ValidationError(f"mode must be 'common' or 'separate', got {mode}")
    solver = solver or SolverConfig(grid_step=2.0, x_max=max(reserve, 2.0))
    h = solver.grid_step
    if decomposition is None:
        decomposition = decompose(market, h)
    thetas = np.arange(box[0], box[1] + sweep_step / 2, sweep_step)
    if mode == "common":
        sweep = sweep_common_loading(market, demands, acquisition, reserve, thetas, h, decomposition)
        free = thetas[:, None]
    else:
        sweep = sweep_separate_loadings(market, demands, acquisition, reserve, thetas, thetas, h, decomposition)
        free = np.column_stack([sweep["theta1"], sweep["theta2"]])

    def loading_of(x):
        return float(x[0]) if mode == "common" else (float(x[0]), float(x[1]))

    def objective(x):
        r, _, feas = company_ruin_at(
            market, demands, acquisition, reserve, [[x[0], x[-1]]], h, decomposition
        )
        return float(r[0]) if feas[0] and np.isfinite(r[0]) else 2.0

    (best,), usable = _sweep_argmin(sweep["ruin"][:, None], sweep["feasible"])
    if not usable.any():
        raise ValidationError("net profit condition fails everywhere in the search box")
    x = free[best]
    value = grid_value = float(sweep["ruin"][best])
    refined = False
    if refine:
        span = 2.0 * sweep_step
        res = sciopt.minimize(
            objective, x0=x, method="L-BFGS-B",
            bounds=[(max(box[0], v - span), min(box[1], v + span)) for v in x],
            options={"eps": 1e-3, "maxiter": 60, "ftol": 1e-12},
        )
        if res.success and np.isfinite(res.fun) and res.fun <= grid_value + 1e-12:
            x, value, refined = res.x, float(res.fun), True

    t1, t2 = float(x[0]), float(x[-1])
    exposure = company_exposure(
        market, acquisition_shares(acquisition, *demands, t1, t2), (t1, t2), demands, (reserve,),
        decomposition=decomposition,
    )
    return LoadingResult(
        criterion="ruin", mode=mode, loading=loading_of(x), value=value, reserve=reserve,
        expected_profit=exposure.expected_profit, grid_loading=loading_of(free[best]),
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
    profit curve numerically on the box.
    """
    d1, d2 = demands
    l1, l2 = intensities
    m1, m2 = mean_severities
    fixed = d1.fixed_cost + d2.fixed_cost
    if mode == "separate":
        r1 = profit_optimal_loading(d1, l1, m1)
        r2 = profit_optimal_loading(d2, l2, m2)
        loading = (r1.loading, r2.loading)
        gross = joint_expected_profit(r1.loading, r2.loading, demands, intensities, mean_severities)
        return LoadingResult(
            criterion="profit", mode=mode, loading=loading, value=gross - fixed,
            expected_profit=gross - fixed, grid_loading=loading,
        )
    if mode != "common":
        raise ValidationError(f"mode must be 'common' or 'separate', got {mode}")

    def negative(t):
        return -joint_expected_profit(t, t, demands, intensities, mean_severities)

    res = sciopt.minimize_scalar(negative, bounds=box, method="bounded", options={"xatol": 1e-8})
    theta = float(res.x)
    return LoadingResult(
        criterion="profit", mode=mode, loading=theta, value=-float(res.fun) - fixed,
        expected_profit=-float(res.fun) - fixed, grid_loading=theta,
    )


def size_scaling_experiment(
    market: MarketSpec,
    acquisition: OrdinaryCopula,
    x0: float,
    theta: float,
    shares: np.ndarray,
    nodes_per_solve: int = 2000,
    decomposition: Decomposition | None = None,
) -> list:
    """Dependence error as company size shrinks.

    For each common market share p the company gets reserve
    x = x0 * size and premium (1 + theta) * size, where size is its
    expected claim cost per unit time.  Each row reports the measured
    |V - V_ind| at x, the a-priori dependence bound, and its small-share
    asymptote both * lambda_both * x0 / (1 + theta).
    """
    if x0 <= 0 or theta <= 0:
        raise ValidationError("size scaling needs positive x0 and theta")
    if decomposition is None:
        decomposition = decompose(market, grid_step=min(
            market.risk1.severity.mean, market.risk2.severity.mean) / 500.0)
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
