import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lundberg as lb
from lundberg.copulas import make_ordinary
from lundberg.errors import ValidationError
from lundberg.optimize import (
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
        float(thetas[np.argmin(np.where(sweep["feasible"], sweep["ruin"][r], np.inf))])
        for r in (100.0, 5000.0, 20_000.0)
    ]
    closed = ruin_optimal_loading(demand1, 800.0, 1000.0).loading
    for a in argmins:
        assert abs(a - closed) <= 0.005 + 1e-12
    assert max(argmins) - min(argmins) <= 0.005 + 1e-12


def test_single_sweep_is_independent_of_chunking(demand1, gamma_severity, monkeypatch):
    from lundberg import optimize

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
    for r in (1000.0, 5000.0):
        assert_allclose(runs[0]["ruin"][r], runs[1]["ruin"][r], rtol=0.0, atol=1e-12)
        assert np.array_equal(np.isnan(runs[0]["ruin"][r]), np.isnan(runs[1]["ruin"][r]))


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
        solver=lb.SolverConfig(grid_step=4.0, x_max=2000.0),
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
            solver=lb.SolverConfig(grid_step=5.0, x_max=1000.0),
            box=(3.0, 3.2), sweep_step=0.05,
        )


def test_common_mode_scans_the_diagonal(indep_market, demands):
    res = optimize_joint_ruin(
        indep_market, demands, lb.IndependenceCopula(), reserve=2000.0, mode="common",
        solver=lb.SolverConfig(grid_step=4.0, x_max=2000.0),
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
        indep_market, demands, lb.IndependenceCopula(), 500.0, [[0.05, 0.05], [0.4, 0.4]], 4.0,
    )
    assert not feasible[0] and ruin[0] == 1.0
    assert feasible[1] and 0.0 < ruin[1] < 1.0


# ---------------------------------------------------------------------------
# size scaling
# ---------------------------------------------------------------------------

def test_size_scaling_rows(dep_market, decomposition):
    rows = size_scaling_experiment(
        dep_market, lb.IndependenceCopula(), x0=0.003, theta=0.4,
        shares=[1.0, 0.3, 0.1], nodes_per_solve=800, decomposition=decomposition,
    )
    assert [r["share"] for r in rows] == [1.0, 0.3, 0.1]
    for row in rows:
        assert row["gap"] <= row["bound"] + 1e-12
        assert row["ruin_dep"] >= row["ruin_ind"] - 1e-9
    ratios = [r["gap_over_share_sum"] for r in rows]
    assert ratios[0] > ratios[-1]
    assert rows[0]["gap"] == max(r["gap"] for r in rows)


# Recorded before the two modes were folded into one code path; the sweep
# hash covers every column's name and bytes in order.
_JOINT_RUIN_PINS = {
    "common": (
        0.40146521387258, 0.39999999999999997, 0.8171773947595442, 26993.306056505302,
        {"refined": True, "sweep_points": 9, "feasible_points": 8,
         "grid_value": 0.8171922808859157},
        "ff291935d86186bbb82b002586ea0a4f79275ed2a27d3d858662527018d35325",
    ),
    "separate": (
        (0.4214459821172037, 0.3822042582269814), (0.39999999999999997, 0.39999999999999997),
        0.8153667583861697, 27344.200115876447,
        {"refined": True, "sweep_points": 81, "feasible_points": 75,
         "grid_value": 0.8171922808859157},
        "e749b45cf7359147256daf2911b6ae2e617a50bc1bf3f49fcc9dcaa04efe5321",
    ),
}


@pytest.mark.parametrize("mode", sorted(_JOINT_RUIN_PINS))
def test_joint_ruin_optimum_is_pinned(dep_market, demands, mode):
    res = optimize_joint_ruin(
        dep_market, demands, lb.ClaytonCopula(0.5), 2000.0, mode=mode,
        solver=lb.SolverConfig(grid_step=25.0, x_max=2000.0), box=(0.2, 0.6), sweep_step=0.05,
        decomposition=lb.decompose(dep_market, 25.0),
    )
    digest = hashlib.sha256()
    for name, column in res.sweep.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    got = (res.loading, res.grid_loading, res.value, res.expected_profit, res.diagnostics,
           digest.hexdigest())
    assert got == _JOINT_RUIN_PINS[mode]
