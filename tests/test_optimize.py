import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize as sciopt

import lundberg as lb
from lundberg.config import parse_config
from lundberg.copulas import make_ordinary
from lundberg.errors import ValidationError
from lundberg.optimize import (
    _box_search,
    _grid_points,
    _loading_grid,
    company_ruin_at,
    joint_expected_profit,
    optimize_joint_profit,
    optimize_joint_ruin,
    profit_optimal_loading,
    ruin_optimal_loading,
    size_scaling_experiment,
    sweep_single_loading,
    weighted_average_loading,
)
from lundberg.presets import figure_config
from lundberg.ruin import survival_batch


# ---------------------------------------------------------------------------
# single-risk optima
# ---------------------------------------------------------------------------

def test_ruin_optimal_loading_closed_form(demand1, demand2):
    r1 = ruin_optimal_loading(demand1, 800.0, 1000.0)
    expected1 = (np.log(800_000.0 / (64_000.0 * 4.0)) + 0.6) / 4.0
    assert r1.loading == pytest.approx(expected1, rel=1e-14)
    assert r1.loading == pytest.approx(0.435, abs=0.005)
    r2 = ruin_optimal_loading(demand2, 800.0, 1000.0)
    assert r2.loading == pytest.approx(0.358, abs=0.005)


def test_ruin_optimal_loading_degenerate_log_argument():
    # lambda * E[Y] equal to r * beta1 with zero intercept puts the log at 0
    d = lb.DemandSpec(beta0=0.0, beta1=4.0, fixed_cost=200_000.0)
    res = ruin_optimal_loading(d, 800.0, 1000.0)
    assert res.loading == pytest.approx(0.0, abs=1e-14)


def test_ruin_optimal_loading_requires_interior_optimum():
    d = lb.DemandSpec(beta0=0.0, beta1=4.0, fixed_cost=300_000.0)
    with pytest.raises(ValidationError):
        ruin_optimal_loading(d, 800.0, 1000.0)
    with pytest.raises(ValidationError):
        ruin_optimal_loading(lb.DemandSpec(beta0=0.0, beta1=4.0, fixed_cost=0.0), 800.0, 1000.0)


def test_ruin_optimum_matches_fine_alpha_sweep(demand1):
    res = ruin_optimal_loading(demand1, 800.0, 1000.0)
    thetas = np.arange(0.05, 1.0, 1e-4)
    p = demand1.take_rate(thetas)
    alpha = 800.0 * p / demand1.premium_rate(800.0, 1000.0, thetas)
    feasible = demand1.premium_rate(800.0, 1000.0, thetas) > 0
    best = thetas[feasible][np.argmin(alpha[feasible])]
    assert res.loading == pytest.approx(best, abs=1e-3)


def test_profit_optimal_loading_roots(demand1, demand2):
    p1 = profit_optimal_loading(demand1, 800.0, 1000.0)
    assert p1.loading == pytest.approx(0.359, abs=0.005)
    assert abs(p1.diagnostics["residual"]) < 1e-9
    p2 = profit_optimal_loading(demand2, 800.0, 1000.0)
    assert p2.loading == pytest.approx(0.319, abs=0.005)
    # the published maximum expected profit of the first preset
    assert p1.value == pytest.approx(22_843.0, abs=1.0)


def test_profit_below_ruin_optimum(demand1, demand2):
    for d in (demand1, demand2):
        assert profit_optimal_loading(d, 800.0, 1000.0).loading < \
            ruin_optimal_loading(d, 800.0, 1000.0).loading


def test_single_ruin_argmin_reserve_invariant(demand1, gamma_severity):
    thetas = np.arange(0.30, 0.60, 0.005)
    sweep = sweep_single_loading(
        demand1, 800.0, gamma_severity, [100.0, 5000.0, 20_000.0], thetas, 4.0,
    )
    argmins = [
        float(thetas[np.argmin(np.where(sweep["feasible"], ruin, np.inf))])
        for ruin in sweep["ruin"].T
    ]
    closed = ruin_optimal_loading(demand1, 800.0, 1000.0).loading
    for a in argmins:
        assert abs(a - closed) <= 0.005 + 1e-12
    assert max(argmins) - min(argmins) <= 0.005 + 1e-12


def test_single_sweep_is_independent_of_chunking(demand1, gamma_severity, monkeypatch):
    from lundberg import _pool, optimize

    monkeypatch.setattr(_pool, "_worker_count", lambda jobs: 1)  # kernel calls are counted in this process
    thetas = np.arange(0.05, 1.0 + 0.0025, 0.025)  # fig1's range: starts infeasible
    calls = []

    def counted(*args):
        calls.append(args[0].shape[0])
        return survival_batch(*args)

    monkeypatch.setattr(optimize, "survival_batch", counted)
    runs = []
    for cells in (1, 1 << 40):  # one row per chunk, then one chunk
        monkeypatch.setattr(optimize, "_SWEEP_CELLS", cells)
        runs.append(sweep_single_loading(demand1, 800.0, gamma_severity, [1000.0, 5000.0], thetas, 5.0))
    feasible = int(runs[0]["feasible"].sum())
    assert 0 < feasible < thetas.size
    assert calls == [1] * feasible + [feasible]
    assert np.array_equal(runs[0]["ruin"], runs[1]["ruin"], equal_nan=True)


def test_single_sweep_packs_feasible_rows_into_full_jobs(demand1, gamma_severity, monkeypatch):
    """Every kernel call but the last gets a full chunk of feasible rows, whatever their positions."""
    from lundberg import _pool, optimize

    monkeypatch.setattr(_pool, "_worker_count", lambda jobs: 1)  # kernel calls are counted in this process
    thetas = np.arange(0.05, 1.0 + 0.0025, 0.025)  # fig1's range: starts infeasible
    calls = []

    def counted(*args):
        calls.append(args[0].shape[0])
        return survival_batch(*args)

    monkeypatch.setattr(optimize, "survival_batch", counted)
    whole = sweep_single_loading(demand1, 800.0, gamma_severity, [1000.0, 5000.0], thetas, 5.0)
    n_nodes = int(round(5000.0 / 5.0)) + 1
    monkeypatch.setattr(optimize, "_SWEEP_CELLS", 7 * n_nodes)
    calls.clear()
    packed = sweep_single_loading(demand1, 800.0, gamma_severity, [1000.0, 5000.0], thetas, 5.0)
    feasible = int(packed["feasible"].sum())
    assert feasible > 7 and feasible % 7
    assert calls == [7] * (feasible // 7) + [feasible % 7]
    assert np.array_equal(packed["ruin"], whole["ruin"], equal_nan=True)


class _FlippedTails(lb.Exponential):
    """An exponential claim whose first integrated tail has the wrong sign: unstable sweep rows."""

    def _integrated_tails(self):
        inner = super()._integrated_tails()
        return lb.IntegratedTails(sbar=lambda x: -inner.sbar(x), ssbar=inner.ssbar, mean=inner.mean)


def test_sweeps_are_the_same_bytes_in_every_pool_mode(demands, gamma_severity, monkeypatch,
                                                      pool_modes):
    from lundberg import optimize

    market = lb.MarketSpec(lb.CompoundPoissonSpec(800.0, gamma_severity),
                           lb.CompoundPoissonSpec(800.0, _FlippedTails(1000.0)), None)
    thetas = np.arange(0.0, 1.0, 0.05)
    t1, t2 = np.meshgrid(thetas, thetas, indexing="ij")
    pairs = np.column_stack([t1.ravel(), t2.ravel()])
    monkeypatch.setattr(optimize, "_SWEEP_CELLS", 7 * 601)  # 7 rows a chunk: 57 full and one of 1

    def company():
        return company_ruin_at(market, demands, lb.IndependenceCopula(), [1000.0, 3000.0], pairs, 5.0,
                               lb.decompose(market, 5.0))

    runs = pool_modes(company)
    ruin, _, feasible = runs[0]
    unstable = np.isnan(ruin).any(axis=1)
    assert 0 < np.count_nonzero(unstable) and 0 < np.count_nonzero(~feasible)
    assert 0 < np.count_nonzero(feasible & ~unstable)
    for run in runs[1:]:
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(run, runs[0]))

    def single():
        return sweep_single_loading(demands[0], 800.0, gamma_severity, [1000.0, 3000.0],
                                    np.arange(0.05, 1.0 + 0.0025, 0.0125), 5.0)

    runs = pool_modes(single)
    for run in runs[1:]:
        assert all(np.array_equal(run[key], runs[0][key])
                   for key in ("theta", "profit", "feasible", "ruin"))


# ---------------------------------------------------------------------------
# joint expected profit
# ---------------------------------------------------------------------------

def test_joint_profit_zero_at_zero_loadings(demands):
    assert joint_expected_profit(0.0, 0.0, demands, (800.0, 800.0), (1000.0, 1000.0)) == 0.0


def test_joint_profit_separates_into_single_maxima(demands):
    d1, d2 = demands
    p1 = profit_optimal_loading(d1, 800.0, 1000.0)
    p2 = profit_optimal_loading(d2, 800.0, 1000.0)
    combined = joint_expected_profit(
        p1.loading, p2.loading, demands, (800.0, 800.0), (1000.0, 1000.0)
    )
    gross1 = p1.value + d1.fixed_cost
    gross2 = p2.value + d2.fixed_cost
    assert combined == pytest.approx(gross1 + gross2, rel=1e-12)


def test_profit_rate_invariant_to_dependence(dep_market, decomposition, demands):
    """Premium minus expected claim rate ignores both copulas."""
    ref = None
    for fam, tau in (("independence", None), ("clayton", 0.5), ("gumbel", 0.3)):
        cop = make_ordinary(fam, tau=tau)
        shares = lb.acquisition_shares(cop, demands[0], demands[1], 0.4, 0.45)
        exposure = lb.company_exposure(
            dep_market, shares, (0.4, 0.45), demands, (5000.0,), decomposition=decomposition,
        )
        if ref is None:
            ref = exposure.expected_profit
        assert exposure.expected_profit == pytest.approx(ref, abs=1e-10 * abs(ref))


def test_profit_rate_invariant_to_levy_parameter(gamma_severity, demands):
    risk = lb.CompoundPoissonSpec(800.0, gamma_severity)
    ref = None
    for omega in (0.5, 1.0, 2.0):
        market = lb.MarketSpec(risk, risk, lb.ClaytonLevyCopula(omega))
        dec = lb.decompose(market, grid_step=4.0)
        shares = lb.acquisition_shares(lb.IndependenceCopula(), demands[0], demands[1], 0.4, 0.45)
        exposure = lb.company_exposure(
            market, shares, (0.4, 0.45), demands, (5000.0,), decomposition=dec,
        )
        if ref is None:
            ref = exposure.expected_profit
        assert exposure.expected_profit == pytest.approx(ref, abs=1e-10 * abs(ref))


# ---------------------------------------------------------------------------
# weighted average loading
# ---------------------------------------------------------------------------

def test_weighted_average_reference_value(demands):
    d1, d2 = demands
    r1 = ruin_optimal_loading(d1, 800.0, 1000.0)
    r2 = ruin_optimal_loading(d2, 800.0, 1000.0)
    avg = weighted_average_loading(
        r1.loading, r2.loading, float(d1.take_rate(0.4)), float(d2.take_rate(0.4))
    )
    assert avg == pytest.approx(0.40, abs=0.01)


def test_weighted_average_degenerate_weights():
    assert weighted_average_loading(0.3, 0.5, 1.0, 0.0) == 0.3
    assert weighted_average_loading(0.42, 0.42, 0.3, 0.6) == pytest.approx(0.42, rel=1e-14)
    with pytest.raises(ValidationError):
        weighted_average_loading(0.3, 0.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# joint optimization machinery
# ---------------------------------------------------------------------------

def test_symmetric_risks_give_equal_loadings(gamma_severity):
    demand = lb.DemandSpec(beta0=-0.6, beta1=4.0, fixed_cost=64_000.0)
    risk = lb.CompoundPoissonSpec(800.0, gamma_severity)
    market = lb.MarketSpec(risk, risk, None)
    res = optimize_joint_ruin(
        market, (demand, demand), lb.IndependenceCopula(), reserve=2000.0, mode="separate",
        grid_step=4.0,
        box=(0.30, 0.55), sweep_step=0.01, refine=False,
    )
    t1, t2 = res.loading
    assert abs(t1 - t2) <= 0.01 + 1e-12


def test_infeasible_box_raises(gamma_severity, demands):
    risk = lb.CompoundPoissonSpec(800.0, gamma_severity)
    market = lb.MarketSpec(risk, risk, None)
    with pytest.raises(ValidationError):
        optimize_joint_ruin(
            market, demands, lb.IndependenceCopula(), reserve=1000.0, mode="common",
            grid_step=5.0,
            box=(3.0, 3.2), sweep_step=0.05,
        )


def test_common_mode_scans_the_diagonal(indep_market, demands):
    res = optimize_joint_ruin(
        indep_market, demands, lb.IndependenceCopula(), reserve=2000.0, mode="common",
        grid_step=4.0,
        box=(0.30, 0.50), sweep_step=0.02, refine=False,
    )
    assert np.isscalar(res.loading)
    assert 0.30 <= res.loading <= 0.50


def test_optimize_joint_profit_modes(demands):
    sep = optimize_joint_profit(demands, (800.0, 800.0), (1000.0, 1000.0), mode="separate")
    assert sep.loading[0] == pytest.approx(0.3586, abs=1e-3)
    assert sep.loading[1] == pytest.approx(0.3187, abs=1e-3)
    common = optimize_joint_profit(demands, (800.0, 800.0), (1000.0, 1000.0), mode="common")
    assert sep.loading[1] < common.loading < sep.loading[0]
    assert common.value <= sep.value + 1e-9


def test_infeasible_points_report_certain_ruin(indep_market, demands):
    ruin, profit, feasible = company_ruin_at(
        indep_market, demands, lb.IndependenceCopula(), [500.0], [[0.05, 0.05], [0.4, 0.4]], 4.0,
        lb.decompose(indep_market, 4.0),
    )
    assert not feasible[0] and ruin[0, 0] == 1.0
    assert feasible[1] and 0.0 < ruin[1, 0] < 1.0


@pytest.mark.parametrize("reserves, step", [
    ([1000.0, -2.0], 2.0), ([np.inf], 2.0), ([np.nan], 2.0),
    ([1000.0], 0.0), ([1000.0], -10.0), ([1000.0], np.inf), ([1000.0], np.nan),
])
def test_sweeps_reject_invalid_reserves_and_grid_steps(gamma_severity, indep_market, demands,
                                                       reserves, step):
    # a negative reserve would index the grid from its far end
    with pytest.raises(ValidationError):
        sweep_single_loading(demands[0], 800.0, gamma_severity, reserves, [0.4], step)
    with pytest.raises(ValidationError):
        company_ruin_at(indep_market, demands, lb.IndependenceCopula(), reserves, [[0.4, 0.4]],
                        step, lb.decompose(indep_market, 2.0))


def test_joint_ruin_rejects_an_invalid_grid_step(indep_market, demands):
    with pytest.raises(ValidationError):
        optimize_joint_ruin(indep_market, demands, lb.IndependenceCopula(), 1000.0, grid_step=0.0)


@pytest.mark.parametrize("step", [0.0, -0.01, np.inf, np.nan])
def test_loading_sweeps_reject_a_step_that_is_not_positive_and_finite(indep_market, demands, step):
    with pytest.raises(ValidationError, match="sweep step"):
        _loading_grid(0.05, 1.0, step)
    with pytest.raises(ValidationError, match="sweep step"):
        optimize_joint_ruin(indep_market, demands, lb.IndependenceCopula(), 1000.0, grid_step=25.0,
                            sweep_step=step, decomposition=lb.decompose(indep_market, 25.0))


@pytest.mark.parametrize("shift, kept", [(-1e-6, True), (1e-6, False)])
def test_joint_ruin_keeps_a_better_refinement_whatever_its_success_flag(dep_market, demands,
                                                                        monkeypatch, shift, kept):
    # L-BFGS-B can stop ABNORMAL at the objective's rounding floor after finding a better point
    from lundberg import optimize

    start = []

    def unconverged(fun, x0, **kwargs):
        start.append(fun(x0)[0])  # the objective gives (value, gradient)
        return sciopt.OptimizeResult(x=np.asarray(x0) + 0.01, fun=start[0] + shift, success=False,
                                     message="ABNORMAL")

    monkeypatch.setattr(optimize.sciopt, "minimize", unconverged)
    res = optimize_joint_ruin(
        dep_market, demands, lb.ClaytonCopula(0.5), 2000.0, mode="common", grid_step=25.0,
        box=(0.2, 0.6), sweep_step=0.05, decomposition=lb.decompose(dep_market, 25.0),
    )
    # the single-pair objective gives the bits of the sweep's row for the same loading
    assert start == [res.diagnostics["grid_value"]]
    assert res.diagnostics["refined"] is kept
    if kept:
        assert res.value == start[0] + shift and res.loading == res.grid_loading + 0.01
    else:
        assert res.value == res.diagnostics["grid_value"] and res.loading == res.grid_loading


def _joint_ruin_refinement(dep_market, demands, mode, monkeypatch):
    """Run the pinned test model's refinement; returns the result, the minimize calls
    (kwargs and result) and the rows of each kernel call made inside them."""
    from lundberg import _pool, optimize

    monkeypatch.setattr(_pool, "_worker_count", lambda jobs: 1)  # kernel calls run in this process
    calls, rows, inside = [], [], []
    minimize = sciopt.minimize  # optimize.sciopt is scipy.optimize itself

    def recorded(fun, x0, **kwargs):
        inside.append(True)
        res = minimize(fun, x0, **kwargs)
        inside.pop()
        calls.append((np.array(x0), kwargs, res))
        return res

    def counted(a, *args):
        if inside:
            rows.append(a.shape[0])
        return survival_batch(a, *args)

    monkeypatch.setattr(optimize.sciopt, "minimize", recorded)
    monkeypatch.setattr(optimize, "survival_batch", counted)
    res = optimize_joint_ruin(
        dep_market, demands, lb.ClaytonCopula(0.5), 2000.0, mode=mode, grid_step=25.0,
        box=(0.2, 0.6), sweep_step=0.05, decomposition=lb.decompose(dep_market, 25.0),
    )
    return res, calls, rows


@pytest.mark.parametrize("mode", ["common", "separate"])
def test_batched_refinement_takes_scipys_finite_difference_iterates(dep_market, demands, mode,
                                                                    monkeypatch):
    # one kernel batch per point gives L-BFGS-B the floats of scipy's own 2-point differencing
    from lundberg.optimize import _company_sweep

    res, [(x0, kwargs, batched)], _ = _joint_ruin_refinement(dep_market, demands, mode, monkeypatch)
    ruin_at = _company_sweep(dep_market, demands, lb.ClaytonCopula(0.5), [2000.0], 25.0,
                             lb.decompose(dep_market, 25.0))

    def one_row_objective(x):
        r, _, feas = ruin_at([[x[0], x[-1]]])
        return float(r[0, 0]) if feas[0] and np.isfinite(r[0, 0]) else 2.0

    scipys = sciopt.minimize(one_row_objective, x0=x0, method="L-BFGS-B", bounds=kwargs["bounds"],
                             options={"eps": 1e-3, "maxiter": 60, "ftol": 1e-12})
    assert np.array_equal(batched.x, scipys.x) and batched.fun == scipys.fun
    assert batched.nit == scipys.nit > 0
    assert batched.nfev * (x0.size + 1) == scipys.nfev
    assert res.diagnostics["refined"] and res.value == scipys.fun


def _bowl(x):
    return float(np.sum(np.cos(3.0 * x) + (x - 0.37) ** 2))


@pytest.mark.parametrize("x0, bounds, first_steps", [
    ([0.6, 0.1], [(0.2, 0.6), (0.1, 0.5)], [-1e-3, 1e-3]),  # on the upper edge: the step flips
    ([0.3002], [(0.3, 0.3005)], [3e-4]),                    # box narrower than the step: shortened
    ([0.3003, 0.45], [(0.3, 0.3005), (0.2, 0.6)], [-3e-4, 1e-3]),  # shortened to the wider side
    ([1e14], [(1e14 - 1.0, 1e14 + 1.0)], [1.0]),            # 1e-3 lost to rounding: sqrt(eps) fallback
])
def test_forward_difference_evaluates_scipys_points_and_iterates(x0, bounds, first_steps):
    from lundberg.optimize import _forward_difference

    batches, singles = [], []

    def values(points):
        batches.append(points)
        return np.array([_bowl(row) for row in points])

    def one_row(x):
        singles.append(np.array(x))
        return _bowl(x)

    options = {"maxiter": 60, "ftol": 1e-12}
    batched = sciopt.minimize(_forward_difference(values, bounds, 1e-3), x0=np.array(x0), jac=True,
                              method="L-BFGS-B", bounds=bounds, options=options)
    scipys = sciopt.minimize(one_row, x0=np.array(x0), method="L-BFGS-B", bounds=bounds,
                             options={"eps": 1e-3, **options})
    assert np.array_equal(np.vstack(batches), np.array(singles))
    assert np.array_equal(batched.x, scipys.x) and batched.fun == scipys.fun
    assert batched.nit == scipys.nit > 0
    first = batches[0]
    assert np.allclose(np.diag(first[1:] - first[0]), first_steps, rtol=1e-6, atol=0)
    lower, upper = np.array(bounds).T
    assert np.all((lower <= first) & (first <= upper))


@pytest.mark.parametrize("mode, n_free", [("common", 1), ("separate", 2)])
def test_refinement_solves_each_point_and_its_neighbours_in_one_kernel_call(dep_market, demands,
                                                                           mode, n_free,
                                                                           monkeypatch):
    res, [(_, _, opt)], rows = _joint_ruin_refinement(dep_market, demands, mode, monkeypatch)
    assert res.diagnostics["refined"]
    assert rows == [n_free + 1] * opt.nfev


@pytest.mark.parametrize("mode", ["common", "separate"])
def test_joint_ruin_in_a_box_of_zero_width_keeps_its_one_sweep_point(dep_market, demands, mode):
    res = optimize_joint_ruin(
        dep_market, demands, lb.ClaytonCopula(0.5), 2000.0, mode=mode, grid_step=25.0,
        box=(0.4, 0.4), sweep_step=0.05, decomposition=lb.decompose(dep_market, 25.0),
    )
    assert res.loading == res.grid_loading and res.value == res.diagnostics["grid_value"]
    assert res.diagnostics["sweep_points"] == 1 and res.diagnostics["refined"] is False


# ---------------------------------------------------------------------------
# loading grids
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(low=st.floats(0.0, 2.0), high=st.floats(0.0, 4.0), step=st.floats(1e-3, 1.0))
@example(low=0.05, high=1.0, step=0.03)
@example(low=0.05, high=1.0, step=0.07)
@example(low=0.05, high=1.0, step=0.005)
@example(low=0.2, high=0.6, step=0.01)
@example(low=0.2, high=0.6, step=0.03)
@example(low=0.2, high=0.6, step=0.07)
def test_loading_grid_starts_at_low_and_never_passes_high(low, high, step):
    if high < low:
        low, high = high, low
    grid = _loading_grid(low, high, step)
    assert grid[0] == low
    assert grid[-1] <= high + 1e-9 * step
    spaced = np.arange(low, high + step / 2, step)
    if spaced[-1] <= high + 1e-9 * step:
        assert np.array_equal(grid, spaced)


@pytest.mark.parametrize("box", [(0.2, 0.6), (0.2, 0.38)])
def test_joint_ruin_sweep_stays_inside_a_box_that_its_step_does_not_divide(dep_market, demands,
                                                                           box):
    # at step 0.07 the loadings 0.62 and 0.41 lie beyond these boxes; (0.2, 0.38) ends below
    # the optimum near 0.4, where the sweep's argmin is its last loading
    res = optimize_joint_ruin(
        dep_market, demands, lb.ClaytonCopula(0.5), 2000.0, mode="common", grid_step=25.0,
        box=box, sweep_step=0.07, decomposition=lb.decompose(dep_market, 25.0),
    )
    assert box[0] <= res.sweep["theta"].min() and res.sweep["theta"].max() <= box[1]
    assert box[0] <= res.grid_loading <= box[1]
    assert box[0] <= res.loading <= box[1]


# ---------------------------------------------------------------------------
# size scaling
# ---------------------------------------------------------------------------

def test_size_scaling_rows(decomposition):
    rows = size_scaling_experiment(
        lb.IndependenceCopula(), x0=0.003, theta=0.4,
        shares=[1.0, 0.3, 0.1], nodes_per_solve=800, decomposition=decomposition,
    )
    assert [r["share"] for r in rows] == [1.0, 0.3, 0.1]
    for row in rows:
        assert row["gap"] <= row["bound"] + 1e-12
        assert row["ruin_dep"] >= row["ruin_ind"] - 1e-9
    ratios = [r["gap_over_share_sum"] for r in rows]
    assert ratios[0] > ratios[-1]
    assert rows[0]["gap"] == max(r["gap"] for r in rows)


# Recorded with the batch-invariant survival kernel, and again when the exchangeable
# pair's lattice became a half lattice (the optima moved by at most 1.4e-13); the sweep
# hash covers every column's name and bytes in order.
_JOINT_RUIN_PINS = {
    "common": (
        0.4014652138728047, 0.39999999999999997, 0.8171773947595433, 26993.306056484173,
        {"refined": True, "sweep_points": 9, "feasible_points": 8,
         "grid_value": 0.8171922808859154},
        "4c7985972d3cdb46f90bf2450b7574a30ddd46b567acaee111bb59a954a0e391",
    ),
    "separate": (
        (0.4214459821173959, 0.38220425822705384), (0.39999999999999997, 0.39999999999999997),
        0.8153667583861688, 27344.200115864107,
        {"refined": True, "sweep_points": 81, "feasible_points": 75,
         "grid_value": 0.8171922808859154},
        "251c538a58c6024264528fc424ce335847124d6b191ff7cd59d9cc0aec82f77b",
    ),
}


@pytest.mark.parametrize("mode", sorted(_JOINT_RUIN_PINS))
def test_joint_ruin_optimum_is_pinned(dep_market, demands, mode):
    res = optimize_joint_ruin(
        dep_market, demands, lb.ClaytonCopula(0.5), 2000.0, mode=mode,
        grid_step=25.0, box=(0.2, 0.6), sweep_step=0.05,
        decomposition=lb.decompose(dep_market, 25.0),
    )
    digest = hashlib.sha256()
    for name, column in res.sweep.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    got = (res.loading, res.grid_loading, res.value, res.expected_profit, res.diagnostics,
           digest.hexdigest())
    assert got == _JOINT_RUIN_PINS[mode]


# ---------------------------------------------------------------------------
# window search
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["fig4", "fig5"])
def preset_model(request):
    """The optimizer's inputs for a separate-loading preset, its decomposition built once."""
    cfg = parse_config(figure_config(request.param))
    market = cfg.market()
    return dict(market=market, demands=tuple(cfg.demands), acquisition=cfg.acquisition,
                grid_step=cfg.solver.grid_step, decomposition=lb.decompose(market, cfg.solver.grid_step))


@pytest.mark.parametrize("reserve", [1000.0, 5000.0, 20000.0])
def test_window_search_finds_the_full_sweeps_optimum(preset_model, reserve):
    full, searched = (optimize_joint_ruin(reserve=reserve, window=window, **preset_model)
                      for window in (False, True))
    assert full.diagnostics["sweep_points"] == 96 * 96
    assert searched.diagnostics["sweep_points"] == 20 * 20 + 11 * 11
    assert searched.diagnostics["refined"]
    assert (searched.grid_loading, searched.value, searched.loading, searched.diagnostics["grid_value"]) == (
        full.grid_loading, full.value, full.loading, full.diagnostics["grid_value"])


def test_window_search_falls_back_when_the_coarse_grid_misses_the_deeper_basin():
    # a shallow basin at index (20, 20), a coarse point, and a deeper one three indices wide at
    # (26, 22), which no coarse point touches: the window around (20, 20), indices 15 to 25,
    # meets the deeper basin only on its edge row 25, so the search falls back to the full sweep
    thetas = _loading_grid(0.05, 1.0, 0.01)
    calls = []

    def solve(points):
        i, j = np.rint((points - 0.05) / 0.01).astype(int).T
        dist = np.maximum(np.abs(i - 26), np.abs(j - 22))  # to the deeper basin
        ruin = np.where(dist <= 1, -1.0 + 0.1 * dist, 1e-3 * ((i - 20) ** 2 + (j - 20) ** 2))
        calls.append(points.shape[0])
        return ruin[:, None], np.ones(points.shape[0]), np.ones(points.shape[0], dtype=bool)

    points, (ruin, _, _), best = _box_search(solve, thetas, 2, window=True)
    assert calls == [400, 121, 96 * 96]
    assert np.array_equal(points, _grid_points(thetas, thetas))
    assert tuple(points[best]) == (thetas[26], thetas[22]) and ruin[best, 0] == -1.0


@pytest.mark.parametrize("mode", sorted(_JOINT_RUIN_PINS))
def test_window_search_sweeps_a_box_too_small_to_save_points(dep_market, demands, mode):
    full, searched = (optimize_joint_ruin(
        dep_market, demands, lb.ClaytonCopula(0.5), 2000.0, mode=mode, grid_step=25.0,
        box=(0.2, 0.6), sweep_step=0.05, decomposition=lb.decompose(dep_market, 25.0), window=window,
    ) for window in (False, True))
    assert (searched.loading, searched.grid_loading, searched.value, searched.expected_profit,
            searched.diagnostics) == (full.loading, full.grid_loading, full.value, full.expected_profit,
                                      full.diagnostics)
    assert list(searched.sweep) == list(full.sweep)
    assert all(np.array_equal(searched.sweep[k], full.sweep[k]) for k in full.sweep)
