"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line (run with ``pytest -s`` to see
them).  Reference setting throughout: two gamma(2, 500) market risks at
intensity 800, logit demand (intercept -0.6, slopes 4.0/4.5, fixed cost
64000 per risk), claims coupled by a Clayton Lévy copula with unit
parameter unless stated otherwise.
"""

import numpy as np
import pytest

import lundberg as lb
from lundberg.copulas import make_ordinary
from lundberg.optimize import (
    company_ruin_at,
    optimize_joint_ruin,
    profit_optimal_loading,
    ruin_optimal_loading,
    size_scaling_experiment,
    weighted_average_loading,
)
from lundberg.presets import figure_config
from lundberg.ruin import SolverConfig, independence_gap_bound, solve_survival

MC_SEED = 1
MC_PATHS = 100_000
SWEEP_STEP = 0.01
GRID_STEP = 2.0
RESERVE = 5000.0


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def thetas():
    return np.arange(0.05, 1.0 + SWEEP_STEP / 2, SWEEP_STEP)


@pytest.fixture(scope="module")
def joint_optima(dep_market, indep_market, decomposition, demands):
    out = {}
    for mode in ("common", "separate"):
        out[("indep", mode)] = optimize_joint_ruin(
            indep_market, demands, lb.IndependenceCopula(), RESERVE, mode=mode,
            grid_step=GRID_STEP, sweep_step=SWEEP_STEP,
        )
        out[("dep", mode)] = optimize_joint_ruin(
            dep_market, demands, lb.IndependenceCopula(), RESERVE, mode=mode,
            grid_step=GRID_STEP, sweep_step=SWEEP_STEP,
            decomposition=decomposition,
        )
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_single_risk_optima(demands):
    d1, d2 = demands
    values = {
        "ruin1": (ruin_optimal_loading(d1, 800.0, 1000.0).loading, 0.435),
        "ruin2": (ruin_optimal_loading(d2, 800.0, 1000.0).loading, 0.358),
        "profit1": (profit_optimal_loading(d1, 800.0, 1000.0).loading, 0.359),
        "profit2": (profit_optimal_loading(d2, 800.0, 1000.0).loading, 0.319),
    }
    ok = all(abs(got - want) <= 0.005 for got, want in values.values())
    detail = ", ".join(f"{k}={got:.4f} (ref {want})" for k, (got, want) in values.items())
    _report("criterion 1 single-risk optima", ok, detail)


def test_criterion_02_joint_common_loading(joint_optima):
    got_i = joint_optima[("indep", "common")].loading
    got_d = joint_optima[("dep", "common")].loading
    ok = abs(got_i - 0.40) <= 0.01 and abs(got_d - 0.40) <= 0.01
    _report("criterion 2 common loading", ok,
            f"independent={got_i:.4f}, dependent={got_d:.4f} (ref 0.40 +- 0.01)")


def test_criterion_03_separate_loadings(joint_optima):
    ref = (0.42, 0.38)
    res_i = joint_optima[("indep", "separate")]
    res_d = joint_optima[("dep", "separate")]
    close = all(
        abs(got - want) <= 0.015
        for res in (res_i, res_d)
        for got, want in zip(res.loading, ref)
    )
    same_argmin = all(
        abs(a - b) <= SWEEP_STEP + 1e-12
        for a, b in zip(res_i.grid_loading, res_d.grid_loading)
    )
    _report(
        "criterion 3 separate loadings", close and same_argmin,
        f"independent={tuple(round(v, 4) for v in res_i.loading)}, "
        f"dependent={tuple(round(v, 4) for v in res_d.loading)} (ref {ref} +- 0.015); "
        f"grid argmins {res_i.grid_loading} vs {res_d.grid_loading} within one step: {same_argmin}",
    )


def test_criterion_04_weighted_average(demands):
    d1, d2 = demands
    t1 = ruin_optimal_loading(d1, 800.0, 1000.0).loading
    t2 = ruin_optimal_loading(d2, 800.0, 1000.0).loading
    avg = weighted_average_loading(t1, t2, float(d1.take_rate(0.4)), float(d2.take_rate(0.4)))
    ok = abs(avg - 0.40) <= 0.01
    _report("criterion 4 weighted average", ok, f"theta_weighted={avg:.4f} (ref 0.40 +- 0.01)")


def test_criterion_05_exponential_closed_form():
    mean, intensity = 1000.0, 1.0
    premium = 1.2 * intensity * mean
    eta = premium / (intensity * mean) - 1.0
    cfg = SolverConfig(grid_step=mean / 200.0, x_max=20.0 * mean)
    curve = solve_survival(intensity, lb.Exponential(mean), premium, cfg)
    xs = np.linspace(0.0, 20.0 * mean, 20)
    exact = np.exp(-eta * xs / ((1.0 + eta) * mean)) / (1.0 + eta)
    err = float(np.max(np.abs(curve.ruin_at(xs) - exact)))
    _report("criterion 5 exponential oracle", err < 1e-3,
            f"max abs error {err:.2e} over 20 reserves at h = mean/200 (tol 1e-3)")


def test_criterion_06_boundary_condition(dep_market, decomposition, demands, shares_at_04):
    worst = 0.0
    cases = []
    for name in ("fig1", "fig2"):
        cfg = lb.parse_config(figure_config(name))
        lam = cfg.risks[0].intensity * float(cfg.demands[0].take_rate(0.4))
        c = float(cfg.demands[0].premium_rate(cfg.risks[0].intensity, 1000.0, 0.4))
        cases.append((lam, cfg.risks[0].severity, c))
    exposure = lb.company_exposure(
        dep_market, shares_at_04, (0.4, 0.4), demands, (RESERVE,), decomposition=decomposition,
    )
    cases.append((exposure.intensity, exposure.severity, exposure.premium_rate))
    cases.append((exposure.intensity_indep, exposure.severity_indep, exposure.premium_rate))
    cases.append((1.0, lb.Exponential(1000.0), 1200.0))
    for lam, sev, c in cases:
        curve = solve_survival(lam, sev, c, SolverConfig(grid_step=GRID_STEP, x_max=100.0))
        worst = max(worst, abs(curve.survival[0] - (1.0 - lam * sev.mean / c)))
    _report("criterion 6 boundary condition", worst <= 1e-12,
            f"max boundary defect {worst:.2e} over {len(cases)} models (tol 1e-12)")


def test_criterion_07_monotone_in_claim_pressure(gamma_severity):
    rng = np.random.default_rng(17)
    cfg = SolverConfig(grid_step=2.5, x_max=4000.0)
    pure = 200.0 * 1000.0
    violations = 0
    for _ in range(20):
        c2 = pure * rng.uniform(1.02, 1.5)
        c1 = c2 * rng.uniform(1.01, 1.4)
        hi_premium = solve_survival(200.0, gamma_severity, c1, cfg)
        lo_premium = solve_survival(200.0, gamma_severity, c2, cfg)
        if not np.all(hi_premium.ruin[1:] < lo_premium.ruin[1:]):
            violations += 1
    _report("criterion 7 monotone in claim pressure", violations == 0,
            f"{violations} of 20 premium pairs violated strict ordering")


def test_criterion_08_dependence_gap_bound(dep_market, decomposition, demands, shares_at_04):
    exposure = lb.company_exposure(
        dep_market, shares_at_04, (0.4, 0.4), demands, (RESERVE,), decomposition=decomposition,
    )
    cfg = SolverConfig(grid_step=GRID_STEP, x_max=20_000.0)
    dep = solve_survival(exposure.intensity, exposure.severity, exposure.premium_rate, cfg)
    ind = solve_survival(exposure.intensity_indep, exposure.severity_indep,
                         exposure.premium_rate, cfg)
    xs = np.linspace(0.0, 20_000.0, 10)
    gap = dep.ruin_at(xs) - ind.ruin_at(xs)
    bound = independence_gap_bound(
        shares_at_04.both, decomposition.lambda_both, exposure.intensity,
        exposure.premium_rate, xs,
    )
    dominated = np.all(np.abs(gap) <= bound + 1e-12)
    ordered = np.all(gap >= -1e-12)
    _report("criterion 8 dependence gap bound", bool(dominated and ordered),
            f"max gap {np.max(np.abs(gap)):.4f} vs min slack "
            f"{np.min(bound - np.abs(gap)):.4f}; dependent >= independent: {bool(ordered)}")


def test_criterion_09_solver_simulator_agreement(
    dep_market, indep_market, fine_decomposition, demands, shares_at_04
):
    reserves = [500.0, 2000.0, 5000.0, 10_000.0, 20_000.0]
    cfg = SolverConfig(grid_step=GRID_STEP, x_max=20_000.0)
    sim = lb.SimConfig(paths=MC_PATHS, seed=MC_SEED)
    d1 = demands[0]
    lam1 = 800.0 * float(d1.take_rate(0.435))
    c1 = float(d1.premium_rate(800.0, 1000.0, 0.435))
    single = solve_survival(lam1, lb.Gamma(2.0, 500.0), c1, cfg)
    exp_i = lb.company_exposure(indep_market, shares_at_04, (0.4, 0.4), demands, (0.0,),
                                decomposition=lb.decompose(indep_market, GRID_STEP))
    curve_i = solve_survival(exp_i.intensity, exp_i.severity, exp_i.premium_rate, cfg)
    exp_d = lb.company_exposure(dep_market, shares_at_04, (0.4, 0.4), demands, (0.0,),
                                decomposition=fine_decomposition)
    curve_d = solve_survival(exp_d.intensity, exp_d.severity, exp_d.premium_rate, cfg)

    outcomes = []
    for u in reserves:
        est = lb.simulate_ruin(lam1, lb.Gamma(2.0, 500.0), c1, u, sim)
        outcomes.append(("single", u, est.ci_low <= single.ruin_at(u) <= est.ci_high))
    for u in reserves:
        est = lb.simulate_bivariate_market(indep_market, shares_at_04, exp_i.premium_rate, u, sim)
        outcomes.append(("aggregated", u, est.ci_low <= curve_i.ruin_at(u) <= est.ci_high))
    for u in reserves:
        est = lb.simulate_bivariate_market(dep_market, shares_at_04, exp_d.premium_rate, u, sim,
                                           decomposition=fine_decomposition)
        outcomes.append(("dependent", u, est.ci_low <= curve_d.ruin_at(u) <= est.ci_high))
    failures = [(m, u) for m, u, ok in outcomes if not ok]
    _report("criterion 9 solver vs simulator", not failures,
            f"{len(outcomes) - len(failures)}/{len(outcomes)} grid values inside 99% Wilson "
            f"intervals at {MC_PATHS} paths" + (f"; failures: {failures}" if failures else ""))


def test_criterion_10_decomposition_consistency(dep_market, decomposition):
    nodes = decomposition.nodes
    worst = 0.0
    for risk, only, lam_only, both in (
        (dep_market.risk1, decomposition.sev1_only, decomposition.lambda1_only,
         decomposition.sev1_both),
        (dep_market.risk2, decomposition.sev2_only, decomposition.lambda2_only,
         decomposition.sev2_both),
    ):
        recomposed = lam_only * only.sf(nodes) + decomposition.lambda_both * both.sf(nodes)
        worst = max(worst, float(np.max(np.abs(recomposed - risk.tail_integral(nodes)))))
    lam_ok = abs(decomposition.lambda_both - 400.0) <= 1e-9
    _report("criterion 10 decomposition consistency", worst <= 1e-9 and lam_ok,
            f"max recomposition defect {worst:.2e} (tol 1e-9); "
            f"lambda_both={decomposition.lambda_both:.6f} (ref 400)")


def test_criterion_11_profit_invariance(gamma_severity, decomposition, dep_market, demands):
    loadings = (0.4, 0.45)
    values = []
    for fam, tau in (("independence", None), ("clayton", 0.5), ("gumbel", 0.3), ("frank", 0.5)):
        cop = make_ordinary(fam, tau=tau)
        shares = lb.acquisition_shares(cop, demands[0], demands[1], *loadings)
        exposure = lb.company_exposure(dep_market, shares, loadings, demands, (RESERVE,),
                                       decomposition=decomposition)
        values.append(exposure.expected_profit)
    risk = lb.CompoundPoissonSpec(800.0, gamma_severity)
    for omega in (0.5, 2.0):
        market = lb.MarketSpec(risk, risk, lb.ClaytonLevyCopula(omega))
        dec = lb.decompose(market, grid_step=GRID_STEP)
        shares = lb.acquisition_shares(lb.IndependenceCopula(), demands[0], demands[1], *loadings)
        exposure = lb.company_exposure(market, shares, loadings, demands, (RESERVE,),
                                       decomposition=dec)
        values.append(exposure.expected_profit)
    spread = max(values) - min(values)
    ok = spread <= 1e-10 * abs(values[0])
    _report("criterion 11 profit invariance", ok,
            f"expected profit spread {spread:.3e} across 4 acquisition copulas and "
            f"3 dependence parameters (tol 1e-10 relative)")


def test_criterion_12_acquisition_dependence_ordering(dep_market, decomposition, demands, thetas):
    pairs = np.column_stack([thetas, thetas])
    curves = {"independent": company_ruin_at(
        dep_market, demands, lb.IndependenceCopula(), [RESERVE], pairs, GRID_STEP, decomposition)}
    for fam in ("clayton", "gumbel"):
        for tau in (0.05, 0.25, 0.5):
            curves[(fam, tau)] = company_ruin_at(
                dep_market, demands, make_ordinary(fam, tau=tau), [RESERVE], pairs, GRID_STEP,
                decomposition)

    def best(sweep):
        ruin, _, feasible = sweep
        ruin = ruin[:, 0]
        vals = np.where(feasible & np.isfinite(ruin), ruin, np.inf)
        i = int(np.argmin(vals))
        return float(thetas[i]), float(ruin[i])

    optima = {k: best(v) for k, v in curves.items()}
    clayton = [optima[("clayton", t)][1] for t in (0.05, 0.25, 0.5)]
    gumbel = [optima[("gumbel", t)][1] for t in (0.05, 0.25, 0.5)]
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(clayton, clayton[1:])) and \
        all(a <= b + 1e-12 for a, b in zip(gumbel, gumbel[1:]))
    gumbel_riskier = all(g >= c - 1e-12 for g, c in zip(gumbel, clayton))
    base = optima["independent"][1]
    near_indep = abs(optima[("clayton", 0.05)][1] - base) <= 0.01 and \
        abs(optima[("gumbel", 0.05)][1] - base) <= 0.01
    argmins = [v[0] for v in optima.values()]
    stable_argmin = max(argmins) - min(argmins) <= SWEEP_STEP + 1e-12
    ok = nondecreasing and gumbel_riskier and near_indep and stable_argmin
    _report(
        "criterion 12 acquisition dependence", ok,
        f"min ruin clayton {clayton}, gumbel {gumbel}, independent {base:.5f}; "
        f"argmin range {min(argmins):.2f}-{max(argmins):.2f}",
    )


def test_criterion_13_small_company_immunity(decomposition):
    shares = [1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 3e-4, 1e-4]
    rows = size_scaling_experiment(
        lb.IndependenceCopula(), x0=0.003, theta=0.4, shares=shares,
        nodes_per_solve=2000, decomposition=decomposition,
    )
    ratios = [r["gap_over_share_sum"] for r in rows]
    monotone = all(a > b for a, b in zip(ratios, ratios[1:]))
    vanishing = ratios[-1] <= 1e-3 * ratios[0]
    bounded = all(r["gap"] <= r["bound"] + 1e-12 for r in rows)
    _report(
        "criterion 13 small-company immunity", monotone and vanishing and bounded,
        f"gap/(p1+p2) falls {ratios[0]:.3e} -> {ratios[-1]:.3e} "
        f"({ratios[-1]/ratios[0]:.1e} of monopoly, tol 1e-3), monotone={monotone}",
    )
