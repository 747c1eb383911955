import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lundberg as lb
from lundberg.distributions import integrated_tails
from lundberg.errors import AccuracyError, InstabilityError, NetProfitError, ValidationError
from lundberg.ruin import (
    SolverConfig, _recursion_coefficients, _tail_convolution, independence_gap_bound, solve_series,
    solve_survival, survival_batch,
)


def exponential_ruin(x, mean, intensity, premium_rate):
    """Classical closed form for exponential claims.

    ruin(x) = exp(-eta*x / ((1+eta)*mu)) / (1+eta) with the relative
    loading eta = c/(lambda*mu) - 1.  Verified against Monte Carlo in
    test_exponential_closed_form_agrees_with_monte_carlo before use as
    the solver oracle.
    """
    eta = premium_rate / (intensity * mean) - 1.0
    return np.exp(-eta * x / ((1.0 + eta) * mean)) / (1.0 + eta)


def direct_recursion(intensity, severity, premium_rate, config):
    """Node-by-node grid recursion, the reference for the batched kernel.

    Each survival value is isolated from the exact segment integrals of
    the piecewise-linear ansatz, one scalar dot product per node.
    """
    tails = integrated_tails(severity)
    h, n, nodes = config.grid_step, config.n_cells, config.nodes()
    sb, ssb = tails.sbar(nodes), tails.ssbar(nodes)
    c2 = np.diff(ssb) - h * sb[:-1]
    w, v = np.diff(sb) - c2 / h, c2 / h
    alpha = intensity / premium_rate
    vbar = np.empty(n + 1)
    vbar[0] = 1.0 - alpha * tails.mean
    for i in range(1, n + 1):
        acc = vbar[0] * (1.0 + alpha * w[i - 1])
        acc += alpha * float(np.dot(w[: i - 1] + v[1:i], vbar[i - 1 : 0 : -1]))
        vbar[i] = acc / (1.0 - alpha * v[0])
    return vbar


# ---------------------------------------------------------------------------
# boundary behaviour and degenerate cases
# ---------------------------------------------------------------------------

def test_boundary_value_is_exact(gamma_severity):
    for intensity, c in ((200.0, 230_000.0), (800.0, 1_000_000.0)):
        cfg = SolverConfig(grid_step=5.0, x_max=100.0)
        curve = solve_survival(intensity, gamma_severity, c, cfg)
        assert curve.survival[0] == pytest.approx(1.0 - intensity * 1000.0 / c, abs=1e-12)


_SOLVERS = pytest.mark.parametrize("solve", [solve_survival, solve_series], ids=["grid", "series"])


@_SOLVERS
def test_no_claims_means_certain_survival(gamma_severity, solve):
    cfg = SolverConfig(grid_step=10.0, x_max=500.0)
    curve = solve(0.0, gamma_severity, 100.0, cfg)
    assert np.all(curve.survival == 1.0)


@_SOLVERS
def test_net_profit_precondition(gamma_severity, solve):
    cfg = SolverConfig(grid_step=5.0, x_max=100.0)
    with pytest.raises(NetProfitError) as err:
        solve(800.0, gamma_severity, 700_000.0, cfg)
    assert err.value.margin == pytest.approx(700_000.0 - 800_000.0)


@_SOLVERS
def test_negative_intensity_is_rejected(gamma_severity, solve):
    with pytest.raises(ValidationError):
        solve(-1.0, gamma_severity, 1000.0, SolverConfig(grid_step=5.0, x_max=100.0))


class _BrokenTails(lb.SeverityModel):
    """Severity whose integrated tails are inconsistent with its mean.

    The recursion is unconditionally stable for well-formed models (the
    denominator 1 - a*ssbar(h)/h stays positive whenever the net profit
    condition holds), so the blow-up guard is exercised with corrupted
    quadrature inputs instead.
    """

    def cdf(self, x):
        return lb.Exponential(1000.0).cdf(x)

    @property
    def mean(self):
        return 1000.0

    def sample(self, rng, size):
        return lb.Exponential(1000.0).sample(rng, size)

    def describe(self):
        return {"kind": "broken"}

    def _integrated_tails(self):
        inner = lb.Exponential(1000.0)._integrated_tails()
        return lb.IntegratedTails(
            sbar=lambda x: -3.0 * inner.sbar(x), ssbar=inner.ssbar, mean=inner.mean,
        )


def test_instability_guard_catches_corrupt_quadrature():
    cfg = SolverConfig(grid_step=5.0, x_max=1000.0)
    reference = direct_recursion(800.0, _BrokenTails(), 900_000.0, cfg)
    first_bad = int(np.nonzero((reference < -1e-9) | (reference > 1.0 + 1e-9))[0][0])
    with pytest.raises(InstabilityError, match=rf"at node {first_bad} outside"):
        solve_survival(800.0, _BrokenTails(), 900_000.0, cfg)


def test_single_sweep_gives_nan_for_unstable_point(demand1, gamma_severity):
    from lundberg.optimize import sweep_single_loading

    broken = sweep_single_loading(demand1, 800.0, _BrokenTails(), [1000.0], [0.435], 5.0)
    assert broken["feasible"][0] and np.isnan(broken["ruin"][1000.0][0])
    sound = sweep_single_loading(demand1, 800.0, gamma_severity, [1000.0], [0.435], 5.0)
    assert 0.0 < sound["ruin"][1000.0][0] < 1.0


def test_kernel_matches_direct_recursion(gamma_severity, dep_market, decomposition, demands,
                                        shares_at_04):
    exposure = lb.company_exposure(
        dep_market, shares_at_04, (0.4, 0.4), demands, (0.0,), decomposition=decomposition,
    )
    cases = [
        (200.0, gamma_severity, 230_000.0, SolverConfig(grid_step=2.0, x_max=20_000.0)),
        (exposure.intensity, exposure.severity, exposure.premium_rate,
         SolverConfig(grid_step=2.0, x_max=5000.0)),
    ]
    assert cases[0][3].n_cells == 10_000
    for args in cases:
        assert np.max(np.abs(solve_survival(*args).survival - direct_recursion(*args))) <= 1e-12


def test_kernel_batch_rows_match_batches_of_one(gamma_severity):
    tails = [integrated_tails(gamma_severity), integrated_tails(lb.Exponential(400.0))]
    n, h = 1500, 2.0
    coefficients = _recursion_coefficients(tails, h * np.arange(n + 1), h)
    a = np.array([[4e-4, 8e-4], [8e-4, 0.0], [0.0, 2e-3], [1e-4, 1e-4]])
    batch, ok = survival_batch(a, coefficients, n)
    assert batch.shape == (4, n + 1) and ok.all()
    for row, curve in zip(a, batch):
        single, single_ok = survival_batch(row[None, :], coefficients, n)
        assert single_ok[0]
        assert np.max(np.abs(single[0] - curve)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.booleans(),
    shape=st.floats(0.5, 5.0),
    mean=st.floats(10.0, 1e4),
    loading=st.floats(0.01, 2.0),
    step=st.floats(0.005, 1.0),
    n=st.one_of(st.sampled_from([1, 2, 3, 1000, 1024, 1025]), st.integers(1, 3000)),
)
def test_kernel_matches_direct_recursion_for_any_model(gamma, shape, mean, loading, step, n):
    severity = lb.Gamma(shape, mean / shape) if gamma else lb.Exponential(mean)
    intensity = 1.0
    premium = (1.0 + loading) * intensity * mean
    cfg = SolverConfig(grid_step=step * mean, x_max=n * step * mean)
    assert cfg.n_cells == n
    tails = integrated_tails(severity)
    coefficients = _recursion_coefficients([tails], cfg.nodes(), cfg.grid_step)
    curves, ok = survival_batch(np.array([[intensity / premium]]), coefficients, n)
    reference = direct_recursion(intensity, severity, premium, cfg)
    assert curves.shape == (1, n + 1) and ok[0]
    assert curves[0, 0] == reference[0]
    assert np.max(np.abs(curves[0] - reference)) <= 1e-12


def test_kernel_fails_a_row_without_touching_the_others(gamma_severity):
    tails = [integrated_tails(gamma_severity)]
    n, h = 777, 2.0
    coefficients = _recursion_coefficients(tails, h * np.arange(n + 1), h)
    v1 = coefficients[2][0]
    a = np.array([[2e-4], [2.0 / v1], [8e-4]])  # middle row: denominator 1 - a*v1 < 0
    batch, ok = survival_batch(a, coefficients, n)
    assert list(ok) == [True, False, True]
    assert np.all(np.isnan(batch[1, 1:]))
    for i in (0, 2):
        single, _ = survival_batch(a[i : i + 1], coefficients, n)
        assert np.max(np.abs(single[0] - batch[i])) <= 1e-12


def test_curve_is_monotone_and_bounded(gamma_severity):
    cfg = SolverConfig(grid_step=2.0, x_max=20_000.0)
    curve = solve_survival(200.0, gamma_severity, 230_000.0, cfg)
    assert np.all(np.diff(curve.survival) >= -1e-12)
    assert np.all((curve.survival >= 0.0) & (curve.survival <= 1.0))
    assert_allclose(curve.ruin, 1.0 - curve.survival, atol=0.0)


# ---------------------------------------------------------------------------
# exponential oracle
# ---------------------------------------------------------------------------

def test_exponential_closed_form_agrees_with_monte_carlo():
    # verifies the oracle formula itself before it judges the solver
    mean, intensity = 1000.0, 1.0
    premium = 1.2 * intensity * mean
    expected = exponential_ruin(2000.0, mean, intensity, premium)
    est = lb.simulate_ruin(intensity, lb.Exponential(mean), premium, 2000.0,
                           lb.SimConfig(paths=40_000, seed=12))
    assert est.ci_low <= expected <= est.ci_high


def test_grid_solver_matches_exponential_closed_form():
    mean, intensity = 1000.0, 1.0
    premium = 1.2 * intensity * mean
    cfg = SolverConfig(grid_step=mean / 200.0, x_max=20.0 * mean)
    curve = solve_survival(intensity, lb.Exponential(mean), premium, cfg)
    reserves = np.linspace(0.0, 20.0 * mean, 20)
    exact = exponential_ruin(reserves, mean, intensity, premium)
    assert np.max(np.abs(curve.ruin_at(reserves) - exact)) < 1e-3


def test_grid_refinement_converges_second_order():
    """Halving the step shrinks the exponential-oracle error about 4x.

    The piecewise-linear quadrature is exact on the interpolant, so the
    scheme converges at the interpolation order O(h^2); the measured
    Richardson ratio between consecutive errors sits near 4.
    """
    mean, intensity = 1000.0, 1.0
    premium = 1.25 * intensity * mean
    reserves = np.linspace(0.0, 10_000.0, 21)
    errors = []
    for h in (mean / 50.0, mean / 100.0, mean / 200.0):
        cfg = SolverConfig(grid_step=h, x_max=10_000.0)
        curve = solve_survival(intensity, lb.Exponential(mean), premium, cfg)
        exact = exponential_ruin(reserves, mean, intensity, premium)
        errors.append(np.max(np.abs(curve.ruin_at(reserves) - exact)))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))
    assert all(3.0 < r < 5.0 for r in ratios), ratios


# ---------------------------------------------------------------------------
# integral operator
# ---------------------------------------------------------------------------

def test_tail_convolution_of_zero_is_zero(gamma_severity):
    nodes = 2.0 * np.arange(101)
    out = _tail_convolution(np.zeros(101), gamma_severity.sf(nodes), 2.0)
    assert_allclose(out, 0.0, atol=0.0)


def test_tail_convolution_of_one_is_integrated_tail(gamma_severity):
    h = 1.0
    nodes = h * np.arange(4001)
    out = _tail_convolution(np.ones(nodes.size), gamma_severity.sf(nodes), h)
    sb = integrated_tails(gamma_severity).sbar(nodes)
    # trapezoid error bound: h^2/12 * total variation of the density
    assert np.max(np.abs(out - sb)) < 5e-4


def test_tail_convolution_preserves_positivity(gamma_severity, rng):
    nodes = 2.0 * np.arange(501)
    values = rng.uniform(0.1, 1.0, nodes.size)
    out = _tail_convolution(values, gamma_severity.sf(nodes), 2.0)
    assert np.all(out[1:] > 0.0)
    assert abs(out[0]) < 1e-12

# ---------------------------------------------------------------------------
# series solver
# ---------------------------------------------------------------------------

def test_series_first_term_dominates_at_small_horizon(gamma_severity):
    intensity, premium = 200.0, 230_000.0
    cfg = SolverConfig(grid_step=0.5, x_max=10.0)
    curve = solve_series(intensity, gamma_severity, premium, cfg)
    tails = integrated_tails(gamma_severity)
    alpha = intensity / premium
    first = alpha * (tails.mean - tails.sbar(curve.x))
    # remaining terms are bounded by alpha^2 * 2*x_max * ||g||
    bound = alpha**2 * 2.0 * 10.0 * tails.mean * 1.1
    assert np.max(np.abs(curve.ruin - first)) < bound


def test_series_matches_grid_solver_on_reference_single_risk(demand1, gamma_severity):
    theta = 0.435
    intensity = 800.0 * float(demand1.take_rate(theta))
    premium = float(demand1.premium_rate(800.0, 1000.0, theta))
    cfg = SolverConfig(grid_step=1.0, x_max=20_000.0)
    series = solve_series(intensity, gamma_severity, premium, cfg)
    grid = solve_survival(intensity, gamma_severity, premium, cfg)
    assert np.max(np.abs(series.survival - grid.survival)) < 5e-3


def test_series_value_increases_with_claim_pressure(gamma_severity):
    # same grid, lower premium -> strictly larger ruin at interior nodes
    cfg = SolverConfig(grid_step=2.0, x_max=4000.0)
    low = solve_series(200.0, gamma_severity, 260_000.0, cfg)
    high = solve_series(200.0, gamma_severity, 230_000.0, cfg)
    assert np.all(high.ruin[1:] > low.ruin[1:])


def test_series_term_budget_enforced(gamma_severity):
    cfg = SolverConfig(grid_step=2.0, x_max=20_000.0, series_terms=3)
    with pytest.raises(AccuracyError):
        solve_series(800.0, gamma_severity, 1_000_000.0, cfg)


def test_series_is_finite_on_long_grids(gamma_severity):
    # alpha^k alone underflows to 0 near 300 terms while L^k g overflows;
    # each term must carry its own power of alpha
    cfg = SolverConfig(grid_step=20.0, x_max=60_000.0)
    series = solve_series(200.0, gamma_severity, 230_000.0, cfg)
    grid = solve_survival(200.0, gamma_severity, 230_000.0, cfg)
    assert np.all(np.isfinite(series.survival))
    assert np.max(np.abs(series.survival - grid.survival)) < 5e-3


def test_series_boundary_value(gamma_severity):
    cfg = SolverConfig(grid_step=2.0, x_max=1000.0)
    curve = solve_series(200.0, gamma_severity, 230_000.0, cfg)
    assert curve.ruin[0] == pytest.approx(200.0 * 1000.0 / 230_000.0, abs=1e-12)


# ---------------------------------------------------------------------------
# monotonicity in the claim/premium pressure (grid solver)
# ---------------------------------------------------------------------------

def test_ruin_strictly_increasing_in_alpha(gamma_severity, rng):
    cfg = SolverConfig(grid_step=2.5, x_max=4000.0)
    pure = 200.0 * 1000.0
    for _ in range(20):
        c2 = pure * rng.uniform(1.02, 1.5)
        c1 = c2 * rng.uniform(1.01, 1.4)
        lo = solve_survival(200.0, gamma_severity, c1, cfg)
        hi = solve_survival(200.0, gamma_severity, c2, cfg)
        assert np.all(lo.ruin[1:] < hi.ruin[1:])


# ---------------------------------------------------------------------------
# dependence gap bound
# ---------------------------------------------------------------------------

def test_gap_bound_degenerate_cases():
    assert independence_gap_bound(0.0, 400.0, 375.0, 430_000.0, 5000.0) == 0.0
    assert independence_gap_bound(0.2, 400.0, 375.0, 430_000.0, 0.0) == 0.0


def test_gap_bound_formula_value():
    p_both, lam_b, lam, c, x = 0.0622, 400.0, 375.4, 432_466.0, 5000.0
    expected = p_both * lam_b * np.expm1(2.0 * lam * x / c) / lam
    assert independence_gap_bound(p_both, lam_b, lam, c, x) == pytest.approx(expected, rel=1e-14)


def test_gap_bound_dominates_measured_gap(dep_market, decomposition, demands, shares_at_04):
    exposure = lb.company_exposure(
        dep_market, shares_at_04, (0.4, 0.4), demands, (0.0,), decomposition=decomposition,
    )
    cfg = SolverConfig(grid_step=2.0, x_max=20_000.0)
    dep = solve_survival(exposure.intensity, exposure.severity, exposure.premium_rate, cfg)
    ind = solve_survival(exposure.intensity_indep, exposure.severity_indep,
                         exposure.premium_rate, cfg)
    xs = np.linspace(0.0, 20_000.0, 10)
    gap = np.abs(dep.ruin_at(xs) - ind.ruin_at(xs))
    bound = independence_gap_bound(
        shares_at_04.both, decomposition.lambda_both, exposure.intensity,
        exposure.premium_rate, xs,
    )
    assert np.all(gap <= bound + 1e-12)
    assert np.all(dep.ruin_at(xs) >= ind.ruin_at(xs) - 1e-12)


# ---------------------------------------------------------------------------
# solver consistency across entry points
# ---------------------------------------------------------------------------

def test_batched_sweep_matches_single_solves(dep_market, decomposition, demands):
    from lundberg.optimize import company_ruin_at

    acq = lb.IndependenceCopula()
    pairs = [[0.3, 0.35], [0.4, 0.4], [0.5, 0.45]]
    ruin, profit, feasible = company_ruin_at(
        dep_market, demands, acq, 5000.0, pairs, 2.0, decomposition
    )
    cfg = SolverConfig(grid_step=2.0, x_max=5000.0)
    for (t1, t2), r in zip(pairs, ruin):
        shares = lb.acquisition_shares(acq, demands[0], demands[1], t1, t2)
        exposure = lb.company_exposure(
            dep_market, shares, (t1, t2), demands, (5000.0,), decomposition=decomposition,
        )
        single = solve_survival(exposure.intensity, exposure.severity,
                                exposure.premium_rate, cfg)
        assert r == pytest.approx(single.ruin[-1], abs=1e-12)
