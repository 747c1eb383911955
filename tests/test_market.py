import numpy as np
import pytest
from numpy.testing import assert_allclose

import lundberg as lb
from lundberg import _pool, distributions
from lundberg.demand import AcquisitionShares
from lundberg.distributions import sum_distribution
from lundberg.errors import ValidationError
from lundberg.market import _company_claim_model
from lundberg.simulate import _CHUNK, _StreamSampler, _block_rng
from test_distributions import joint_from_matrix, marginal_masses, reference_sum_distribution


# ---------------------------------------------------------------------------
# aggregation of independent risks: a monopoly company on an independent market
# ---------------------------------------------------------------------------

def _aggregate(risk1, risk2, demands):
    market = lb.MarketSpec(risk1, risk2, None)
    return lb.company_exposure(market, AcquisitionShares.monopoly(), (0.4, 0.4), demands,
                               (0.0,), decomposition=lb.decompose(market, 2.0))


def test_aggregate_single_is_identity(gamma_severity, demands):
    spec = lb.CompoundPoissonSpec(800.0, gamma_severity)
    agg = _aggregate(spec, lb.CompoundPoissonSpec(0.0, lb.Exponential(2000.0)), demands)
    assert agg.intensity == 800.0
    xs = np.linspace(0.0, 4000.0, 9)
    assert_allclose(agg.severity.cdf(xs), gamma_severity.cdf(xs), rtol=1e-14)


def test_aggregate_identical_pair_doubles_intensity(gamma_severity, demands):
    spec = lb.CompoundPoissonSpec(800.0, gamma_severity)
    agg = _aggregate(spec, spec, demands)
    assert agg.intensity == 1600.0
    xs = np.linspace(0.0, 4000.0, 9)
    assert_allclose(agg.severity.cdf(xs), gamma_severity.cdf(xs), rtol=1e-14)


def test_aggregate_weights_by_intensity(gamma_severity, demands):
    a = lb.CompoundPoissonSpec(800.0, gamma_severity)
    b = lb.CompoundPoissonSpec(400.0, lb.Exponential(2000.0))
    agg = _aggregate(a, b, demands)
    assert agg.intensity == 1200.0
    assert_allclose(agg.severity._w, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)
    assert_allclose(agg.severity.mean, (2.0 / 3.0) * 1000.0 + (1.0 / 3.0) * 2000.0, rtol=1e-12)


def test_aggregate_rejects_zero_total(gamma_severity, demands):
    spec = lb.CompoundPoissonSpec(0.0, gamma_severity)
    with pytest.raises(ValidationError):
        _aggregate(spec, spec, demands)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_independent_market_decomposes_trivially(indep_market):
    dec = lb.decompose(indep_market, grid_step=2.0)
    assert dec.lambda_both == 0.0
    assert dec.lambda1_only == indep_market.risk1.intensity
    assert dec.sev1_only is indep_market.risk1.severity
    assert dec.joint_both is None


@pytest.mark.parametrize("market", ["dep_market", "indep_market"])
@pytest.mark.parametrize("steps", [(0.0, None), (-2.0, None), (np.inf, None), (np.nan, None),
                                   (2.0, 0.0), (2.0, -4.0)])
def test_decompose_rejects_invalid_steps(market, steps, request):
    grid_step, joint_step = steps
    with pytest.raises(ValidationError, match="grid step must be positive"):
        lb.decompose(request.getfixturevalue(market), grid_step, joint_step=joint_step)


def test_clayton_unit_parameter_splits_half(decomposition):
    assert decomposition.lambda_both == pytest.approx(400.0, rel=1e-12)
    assert decomposition.lambda1_only == pytest.approx(400.0, rel=1e-12)
    assert decomposition.lambda2_only == pytest.approx(400.0, rel=1e-12)


def test_recomposition_matches_marginal_tail_integral(decomposition, dep_market):
    # brute-force comparison at every grid node
    nodes = decomposition.nodes
    recomposed = (
        decomposition.lambda1_only * decomposition.sev1_only.sf(nodes)
        + decomposition.lambda_both * decomposition.sev1_both.sf(nodes)
    )
    assert_allclose(recomposed, dep_market.risk1.tail_integral(nodes), atol=1e-9)
    recomposed2 = (
        decomposition.lambda2_only * decomposition.sev2_only.sf(nodes)
        + decomposition.lambda_both * decomposition.sev2_both.sf(nodes)
    )
    assert_allclose(recomposed2, dep_market.risk2.tail_integral(nodes), atol=1e-9)


def test_joint_marginals_match_component_masses(decomposition):
    m1, m2 = marginal_masses(decomposition.joint_both)
    assert_allclose(m1, decomposition.sev1_both._masses, atol=1e-12)
    assert_allclose(m2, decomposition.sev2_both._masses, atol=1e-12)


def _reference_joint(dec):
    """The whole joint lattice, from the where-guarded corner formula."""
    market, levy = dec.market, dec.market.levy
    joint = dec.joint_both
    jnodes = joint.step * np.arange(joint.ncells + 1)
    e1 = np.asarray(market.risk1.tail_integral(jnodes), dtype=float)
    e2 = np.asarray(market.risk2.tail_integral(jnodes), dtype=float)
    e1[-1] = 0.0
    e2[-1] = 0.0
    rows = e1[:, None]
    if levy.omega == 1.0:
        with np.errstate(invalid="ignore", divide="ignore"):
            block = np.where(rows + e2 > 0.0, rows * e2 / (rows + e2), 0.0)
    else:
        block = np.asarray(levy.cdf(rows, e2[None, :]), dtype=float)
    rect = np.diff(np.diff(block, axis=0), axis=1) / dec.lambda_both
    return joint_from_matrix(joint.step, np.maximum(rect, 0.0))


def _lattice_market(omega):
    risk1 = lb.CompoundPoissonSpec(800.0, lb.Gamma(2.0, 500.0))
    risk2 = lb.CompoundPoissonSpec(500.0, lb.Exponential(700.0))
    return lb.MarketSpec(risk1, risk2, lb.ClaytonLevyCopula(omega))


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.5])
def test_summed_simultaneous_claim_is_bit_identical_to_reference(omega):
    dec = lb.decompose(_lattice_market(omega), grid_step=40.0)
    assert dec.joint_both.ncells > 256 and dec.joint_both.ncells % 256 != 0  # two chunks
    expected = reference_sum_distribution(_reference_joint(dec))
    assert np.array_equal(dec.sev_sum_both._masses, expected._masses)
    assert np.array_equal(dec.sev_sum_both._atoms, expected._atoms)


@pytest.mark.parametrize("omega", [0.5, 1.0])
def test_summed_simultaneous_claim_is_the_same_bytes_in_every_pool_mode(omega, pool_modes,
                                                                        monkeypatch):
    # 37 rows per chunk, which leaves a short last chunk: every chunk, in a
    # worker or not, restarts its carried corner row
    monkeypatch.setattr(distributions, "_LATTICE_CHUNK", 37)
    runs = pool_modes(lambda: lb.decompose(_lattice_market(omega), grid_step=40.0))
    assert runs[0].joint_both.ncells % 37 != 0
    expected = reference_sum_distribution(_reference_joint(runs[0]), chunk=37)
    for run in runs:
        assert np.array_equal(run.sev_sum_both._masses, expected._masses)
        assert np.array_equal(run.sev_sum_both._atoms, expected._atoms)


def test_lattice_evaluates_each_corner_row_once_per_chunk(monkeypatch):
    dec = lb.decompose(_lattice_market(2.5), grid_step=40.0)
    cells = []
    cdf = lb.ClaytonLevyCopula.cdf

    def counted(self, x, y):
        cells.append(np.broadcast(np.asarray(x), np.asarray(y)).size)
        return cdf(self, x, y)

    monkeypatch.setattr(lb.ClaytonLevyCopula, "cdf", counted)
    monkeypatch.setattr(_pool, "_MIN_WORK", float("inf"))  # every chunk in this process
    n, chunk = dec.joint_both.ncells, 37
    monkeypatch.setattr(distributions, "_LATTICE_CHUNK", chunk)
    sum_distribution(dec.joint_both)
    chunks = -(-n // chunk)
    assert 0 < sum(cells) <= (n + chunks) * (n + 1)


def test_decomposition_retains_only_masses_and_cdf_per_component(dep_market):
    """Each gridded component keeps its masses and cdf; its atoms are a view of the nodes.

    Six components and the nodes make 13 node-sized float64 arrays; the
    tails' piecewise integrals are rebuilt per call, not retained.
    """
    import gc
    import tracemalloc

    lb.decompose(dep_market, 25.0)  # first-use imports stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        dec = lb.decompose(dep_market, 0.25, joint_step=25.0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    node_array = 8 * dec.nodes.size
    assert dec.nodes.size > 60_000
    assert retained <= 16 * node_array, retained / node_array
    assert peak <= 24 * node_array, peak / node_array


def test_degenerate_complete_dependence(gamma_severity):
    risk = lb.CompoundPoissonSpec(800.0, gamma_severity)
    market = lb.MarketSpec(risk, risk, lb.ClaytonLevyCopula(200.0))
    dec = lb.decompose(market, grid_step=4.0)
    assert dec.lambda_both == pytest.approx(800.0, rel=1e-2)
    if dec.degenerate1:
        with pytest.raises(ValidationError):
            dec.sample_only1(np.random.default_rng(0), 10)


def test_exclusive_sampler_matches_gridded_component(decomposition):
    rng = np.random.default_rng(123)
    draws = decomposition.sample_only1(rng, 100_000)
    xs = np.linspace(200.0, 4000.0, 8)
    for x in xs:
        p_emp = float(np.mean(draws <= x))
        p_grid = float(decomposition.sev1_only.cdf(x))
        tol = 3.0 * np.sqrt(0.25 / draws.size) + 2e-3
        assert abs(p_emp - p_grid) < tol


def test_pair_sampler_marginal_mean(decomposition):
    rng = np.random.default_rng(321)
    y1, y2 = decomposition.sample_pair_both(rng, 100_000)
    se = y1.std() / np.sqrt(y1.size)
    assert abs(y1.mean() - decomposition.sev1_both.mean) < 4 * se + 1.0
    assert abs(y2.mean() - decomposition.sev2_both.mean) < 4 * se + 1.0


# ---------------------------------------------------------------------------
# company exposure
# ---------------------------------------------------------------------------

def test_monopoly_intensity(dep_market, decomposition, demands):
    exposure = lb.company_exposure(
        dep_market, AcquisitionShares.monopoly(), (0.4, 0.4), demands, (5000.0,),
        decomposition=decomposition,
    )
    assert exposure.intensity == pytest.approx(800.0 + 800.0 - 400.0, rel=1e-12)


def test_no_joint_clients_reduces_to_marginal_model(dep_market, decomposition, demands):
    shares = AcquisitionShares(p1=0.3, p2=0.3, only1=0.3, only2=0.3, both=0.0)
    exposure = lb.company_exposure(
        dep_market, shares, (0.4, 0.4), demands, (5000.0,), decomposition=decomposition,
    )
    assert exposure.intensity == pytest.approx(exposure.intensity_indep, rel=1e-12)
    xs = np.linspace(0.0, 9000.0, 19)
    assert_allclose(exposure.severity.cdf(xs), exposure.severity_indep.cdf(xs), atol=1e-12)


def test_independent_market_mixture(indep_market, demands, shares_at_04):
    exposure = lb.company_exposure(
        indep_market, shares_at_04, (0.4, 0.4), demands, (5000.0,),
        decomposition=lb.decompose(indep_market, 2.0),
    )
    lam_expected = shares_at_04.p1 * 800.0 + shares_at_04.p2 * 800.0
    assert exposure.intensity == pytest.approx(lam_expected, rel=1e-12)
    assert isinstance(exposure.severity, lb.Mixture)
    assert len(exposure.severity._components) == 2


def test_mean_preservation_for_random_configurations(dep_market, decomposition, demands):
    rng = np.random.default_rng(7)
    families = [lb.IndependenceCopula(), lb.ClaytonCopula(2.0), lb.GumbelCopula(1.7)]
    for _ in range(100):
        cop = families[rng.integers(len(families))]
        t1, t2 = rng.uniform(0.05, 1.0, size=2)
        shares = lb.acquisition_shares(cop, demands[0], demands[1], t1, t2)
        exposure = lb.company_exposure(
            dep_market, shares, (t1, t2), demands, (1000.0,), decomposition=decomposition,
        )
        dep_rate = exposure.intensity * exposure.severity.mean
        ind_rate = exposure.intensity_indep * exposure.severity_indep.mean
        assert abs(dep_rate - ind_rate) <= 1e-8 * dep_rate


def test_zero_shares_rejected(dep_market, decomposition, demands):
    shares = AcquisitionShares(p1=0.0, p2=0.0, only1=0.0, only2=0.0, both=0.0)
    with pytest.raises(ValidationError):
        lb.company_exposure(dep_market, shares, (0.4, 0.4), demands, (100.0,),
                            decomposition=decomposition)


def test_company_claim_model_weights(decomposition, shares_at_04):
    lam_t, sev_t, lam_h, sev_h = _company_claim_model(decomposition, shares_at_04)
    s = shares_at_04
    assert lam_t == pytest.approx(s.p1 * 800 + s.p2 * 800 - s.both * 400, rel=1e-12)
    assert lam_h == pytest.approx(s.p1 * 800 + s.p2 * 800, rel=1e-12)
    expected_w = np.array([
        s.p1 * 400, s.p2 * 400, s.only1 * 400, s.only2 * 400, s.both * 400,
    ]) / lam_t
    assert_allclose(sev_t._w, expected_w, rtol=1e-12)


def stream_claim_counts(decomposition, shares, horizon, paths, seed):
    """Count the simulator's claims per stream over a fixed horizon, ignoring ruin.

    Drives the bivariate simulator's stream sampler path by path, so the
    counts exercise its superposition and thinning end to end.
    """
    sampler = _StreamSampler(decomposition, shares)
    rng = _block_rng(seed, 0)
    counts = np.zeros(3, dtype=np.int64)
    for _ in range(paths):
        t = 0.0
        while True:
            tt = t + np.cumsum(rng.exponential(1.0 / sampler.total_rate, _CHUNK))
            within = int(np.searchsorted(tt, horizon, side="right"))
            counts += np.bincount(np.searchsorted(sampler.type_cum, rng.random(within)), minlength=3)
            if within < _CHUNK:
                break
            t = tt[-1]
    return counts


def test_stream_counts_reproduce_marginal_frequency(decomposition):
    """Simulated decomposed streams recover the marginal claim rates."""
    horizon, paths = 0.25, 50
    got = stream_claim_counts(
        decomposition, AcquisitionShares.monopoly(), horizon, paths, seed=3,
    ).astype(float)
    exposure = horizon * paths
    lam1_hits = (got[0] + got[2]) / exposure     # claims touching risk 1
    lam2_hits = (got[1] + got[2]) / exposure
    sd1 = np.sqrt(800.0 / exposure)
    assert abs(lam1_hits - 800.0) < 3 * sd1
    assert abs(lam2_hits - 800.0) < 3 * sd1
