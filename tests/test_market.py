import collections
import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lundberg as lb
from lundberg import _pool, distributions
from lundberg.demand import AcquisitionShares
from lundberg.distributions import sum_distribution
from lundberg.errors import ValidationError
from lundberg.market import _company_claim_model
from lundberg.simulate import _CHUNK, _block_rng, _company_draw
from test_distributions import joint_from_matrix, marginal_masses, reference_sum_distribution
from test_simulate import stream_rates


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


def test_coupled_market_rejects_a_claim_size_with_mass_at_zero(gamma_severity):
    # the Levy copula couples the tail integrals U(x) for x > 0, and U(0) = lambda (1 - m0) is not lambda
    zero = lb.CompoundPoissonSpec(800.0, lb.Gridded([0.0, 1000.0, 2000.0], [0.3, 0.4, 0.3]))
    plain = lb.CompoundPoissonSpec(800.0, gamma_severity)
    for pair in ((zero, plain), (plain, zero)):
        with pytest.raises(ValidationError, match="mass at 0"):
            lb.MarketSpec(*pair, lb.ClaytonLevyCopula(1.0))
    independent = lb.decompose(lb.MarketSpec(zero, plain), 25.0)
    assert independent.sev1_only is zero.severity and independent.lambda_both == 0.0


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
    step = "grid" if joint_step is None else "joint"
    with pytest.raises(ValidationError, match=f"{step} step must be positive"):
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


def _lattice_market(omega, exchangeable=False):
    risk1 = lb.CompoundPoissonSpec(800.0, lb.Gamma(2.0, 500.0))
    risk2 = risk1 if exchangeable else lb.CompoundPoissonSpec(500.0, lb.Exponential(700.0))
    return lb.MarketSpec(risk1, risk2, lb.ClaytonLevyCopula(omega))


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.5])
def test_summed_simultaneous_claim_is_bit_identical_to_reference(omega):
    dec = lb.decompose(_lattice_market(omega), grid_step=40.0)
    assert dec.joint_both.ncells > 256 and dec.joint_both.ncells % 256 != 0  # two chunks
    expected = reference_sum_distribution(_reference_joint(dec))
    assert np.array_equal(dec.sev_sum_both._masses, expected._masses)
    assert np.array_equal(dec.sev_sum_both._atoms, expected._atoms)


@pytest.mark.parametrize("step", [100.0, 40.0, 25.0])
@pytest.mark.parametrize("omega", [0.5, 1.0, 2.5])
def test_exchangeable_summed_simultaneous_claim_is_the_full_lattice_to_rounding(omega, step):
    # the half lattice: mirrored cells subtract their corners in another order, and the
    # anti-diagonals add in another order; one chunk (100), and a short last chunk (40, 25)
    dec = lb.decompose(_lattice_market(omega, exchangeable=True), grid_step=step)
    assert dec.exchangeable and dec.joint_both.symmetric
    assert dec.joint_both.ncells < 256 if step == 100.0 else dec.joint_both.ncells % 256 != 0
    expected = reference_sum_distribution(_reference_joint(dec))
    assert_allclose(dec.sev_sum_both._masses, expected._masses, rtol=1e-14, atol=0.0)
    assert np.array_equal(dec.sev_sum_both._atoms, expected._atoms)
    # full rows still stream for the marginals, bit for bit those of the reference
    for mine, full in zip(marginal_masses(dec.joint_both), marginal_masses(_reference_joint(dec))):
        assert np.array_equal(mine, full)


@pytest.mark.parametrize("exchangeable, omega", [
    pytest.param(False, 0.5, id="0.5"), pytest.param(False, 1.0, id="1.0"),
    pytest.param(True, 0.5, id="exchangeable-0.5"), pytest.param(True, 1.0, id="exchangeable-1.0"),
])
def test_summed_simultaneous_claim_is_the_same_bytes_in_every_pool_mode(exchangeable, omega, pool_modes,
                                                                        monkeypatch):
    # 37 rows per chunk, which leaves a short last chunk: every chunk, in a
    # worker or not, restarts its carried corner row.  An exchangeable pair's
    # half lattice sums in another order than the reference, so its runs must
    # match the first run's bytes and the reference to rounding.
    monkeypatch.setattr(distributions, "_LATTICE_CHUNK", 37)
    runs = pool_modes(lambda: lb.decompose(_lattice_market(omega, exchangeable), grid_step=40.0))
    assert runs[0].joint_both.ncells % 37 != 0
    assert runs[0].joint_both.symmetric == exchangeable
    expected = reference_sum_distribution(_reference_joint(runs[0]), chunk=37)
    if exchangeable:
        assert_allclose(runs[0].sev_sum_both._masses, expected._masses, rtol=1e-14, atol=0.0)
        expected = runs[0].sev_sum_both
    for run in runs:
        assert np.array_equal(run.sev_sum_both._masses, expected._masses)
        assert np.array_equal(run.sev_sum_both._atoms, expected._atoms)


# SHA-256 of the summed simultaneous claim's masses and atoms, at lattice chunks of
# 256 rows (two at step 40, the last short) and 37 (eleven, the last short).  The
# exchangeable tests above hold the full reference to rounding only; these hold
# every bit of the half-row sum.
_SUM_PINS = {
    ("exchangeable-1.0", 256): ("4c2bf720b467f364711af97567326eb5ba0825b1dc8250cf5402f4859a8d2457",
                                "3c8e6f7f82d3c1b146bd3f3d2ccf513be8d81dfa4f509c5488662e9afb010892"),
    ("exchangeable-1.0", 37): ("6b9e63a27bd81dcd32479d0e3575e7d7a2af0a3e9cc3d77ae150de50b104249f",
                               "3c8e6f7f82d3c1b146bd3f3d2ccf513be8d81dfa4f509c5488662e9afb010892"),
    ("exchangeable-0.5", 256): ("4300401bfabf0c4b15ec920d74402ff044e6e678392031f3c3074512feabc1f7",
                                "3c8e6f7f82d3c1b146bd3f3d2ccf513be8d81dfa4f509c5488662e9afb010892"),
    ("exchangeable-0.5", 37): ("e87633f075d151bc53b2128ee3f3073d22b5dee6c993e92c9d933d9705c1efc5",
                               "3c8e6f7f82d3c1b146bd3f3d2ccf513be8d81dfa4f509c5488662e9afb010892"),
    ("2.5", 256): ("61b3af8216cfc96d3ccbac0bdafecb762509edb021c55c4239afd842a56c756d",
                   "4d7611ac0557afec1bf0e0f5f010ff81821e8300144e5b66f856bc2cc86f447e"),
    ("fig5", 256): ("550124544faddcbf26253a72458ae183f730251ef1cc0862c5017f1ba37aee7b",
                    "d02c9fcd32027035a5b5f5eab1181e07e5a7c49f33d6d53975cc6254bdea20fc"),
    ("fine", 256): ("01d2c775932a0cb32d60b225a848891bccbdb451725cb862445072ec7e720e58",
                    "28a71ab4192f41026ffb94411f74cf22c1a01ae1dc80f09c1d96f0ebcccace7e"),
}


@pytest.mark.parametrize("name, chunk", _SUM_PINS, ids=[f"{name}-{chunk}" for name, chunk in _SUM_PINS])
def test_summed_simultaneous_claim_keeps_its_pinned_bytes(name, chunk, request, monkeypatch):
    monkeypatch.setattr(distributions, "_LATTICE_CHUNK", chunk)
    if name == "fig5":  # fig5's market at h = 2
        dec = request.getfixturevalue("decomposition")
    elif name == "fine":  # criterion 9's: joint step 0.5, 21,536 cells
        dec = request.getfixturevalue("fine_decomposition")
    else:
        omega, exchangeable = float(name.rpartition("-")[2]), name.startswith("exchangeable")
        dec = lb.decompose(_lattice_market(omega, exchangeable), grid_step=40.0)
    summed = dec.sev_sum_both
    assert (hashlib.sha256(summed._masses.tobytes()).hexdigest(),
            hashlib.sha256(summed._atoms.tobytes()).hexdigest()) == _SUM_PINS[name, chunk]


class _OddAtOneClaimSize(lb.Gamma):
    """Gamma(2, 500) claims whose survival function reads ``value`` at claim size 180.

    180 is an edge of a lattice of step 60 but no node of a component grid of step 40."""

    def __init__(self, value):
        super().__init__(2.0, 500.0)
        self._value = value

    def sf(self, x):
        return np.where(np.asarray(x) == 180.0, self._value, super().sf(x))


def _decompose_odd(value, exchangeable):
    risk1 = lb.CompoundPoissonSpec(800.0, _OddAtOneClaimSize(value))
    risk2 = risk1 if exchangeable else lb.CompoundPoissonSpec(500.0, lb.Exponential(700.0))
    return lb.decompose(lb.MarketSpec(risk1, risk2, lb.ClaytonLevyCopula(1.0)), grid_step=40.0, joint_step=60.0)


@pytest.mark.parametrize("exchangeable", [True, False])
def test_lattice_with_a_nan_tail_integral_raises(exchangeable):
    with pytest.raises(ValidationError, match="joint cell masses"):
        _decompose_odd(np.nan, exchangeable)


@pytest.mark.parametrize("exchangeable", [True, False])
def test_lattice_with_a_rising_tail_integral_raises(exchangeable):
    # sf(180) 1e-10 above sf(120): a clamp of the lattice's negative cells would sum the masses
    # to 1 + 1e-10, inside the total's tolerance
    rising = float(lb.Gamma(2.0, 500.0).sf(120.0)) + 1e-10
    with pytest.raises(ValidationError, match="joint cell masses must be nonnegative"):
        _decompose_odd(rising, exchangeable)


def _corner_cells(market, monkeypatch):
    """The lattice's cell count n, its chunk count at 37 rows, and the copula cells its sum evaluates."""
    dec = lb.decompose(market, grid_step=40.0)
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
    return n, -(-n // chunk), sum(cells)


def test_lattice_evaluates_each_corner_row_once_per_chunk(monkeypatch):
    n, chunks, cells = _corner_cells(_lattice_market(2.5), monkeypatch)
    assert 0 < cells <= (n + chunks) * (n + 1)


def test_exchangeable_lattice_evaluates_half_the_corner_cells(monkeypatch):
    # corner row i + 1 on the columns i:, once per row and once more where a chunk starts
    n, chunks, cells = _corner_cells(_lattice_market(2.5, exchangeable=True), monkeypatch)
    assert 0 < cells <= (n + 2 * chunks + 2) * (n + 1) / 2
    assert cells < 0.55 * (n + chunks) * (n + 1)


def _traced_decompose(market):
    """``decompose(market, 0.25, joint_step=25.0)`` and its tracemalloc (retained, peak) in node arrays."""
    import gc
    import tracemalloc

    lb.decompose(market, 25.0)  # first-use imports stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        dec = lb.decompose(market, 0.25, joint_step=25.0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.nodes.size > 60_000
    node_array = 8 * dec.nodes.size
    return dec, retained / node_array, peak / node_array


def _asymmetric_market(dep_market, intensity=800.0, scale=500.0):
    """``dep_market`` with risk 2 given its own intensity or Gamma scale."""
    return lb.MarketSpec(dep_market.risk1,
                         lb.CompoundPoissonSpec(intensity, lb.Gamma(2.0, scale)), dep_market.levy)


def _assert_one_array_per_component(dec):
    for sev in (dec.sev1_only, dec.sev2_only, dec.sev1_both, dec.sev2_both, dec.sev1_gridded,
                dec.sev2_gridded):
        assert np.shares_memory(sev._atoms, dec.nodes)
        assert [k for k, v in vars(sev).items() if isinstance(v, np.ndarray)] == ["_atoms", "_masses"]


def test_decomposition_retains_only_masses_and_cdf_per_component(dep_market):
    """Each gridded component keeps its masses and cdf; its atoms are a view of the nodes.

    Six components and the nodes make 13 node-sized float64 arrays; the
    tails' piecewise integrals are rebuilt per call, not retained.
    """
    _, retained, peak = _traced_decompose(dep_market)
    assert retained <= 16, retained
    assert peak <= 24, peak


def test_decomposition_keeps_one_array_per_component(dep_market):
    """An exchangeable pair's three gridded components own one node-sized array each.

    Risk 2 (same intensity, same claim law) reuses risk 1's components, so
    with the nodes 4 node-sized float64 arrays are retained (the summed
    claim's lattice is coarse here); building them keeps one tail pair and
    a component's temporaries alive at once.
    """
    dec, retained, peak = _traced_decompose(dep_market)
    assert retained <= 5, retained
    assert peak <= 8, peak
    _assert_one_array_per_component(dec)


def test_asymmetric_decomposition_keeps_one_array_per_component(dep_market):
    """Six gridded components and the nodes: 7 node-sized arrays, built one risk at a time."""
    dec, retained, peak = _traced_decompose(_asymmetric_market(dep_market, intensity=600.0))
    assert not dec.exchangeable
    assert retained <= 8, retained
    assert peak <= 12, peak
    _assert_one_array_per_component(dec)


def _risk2_parts(dec):
    return (dec.sev2_both, dec.sev2_gridded, dec.sev2_only)


def _assert_tables_are_risk2s_own(dec):
    """The risk-2 inverse tables hold the bits of risk 2's tails at the table abscissae."""
    tables = dec._inverse_tables()
    u, c = dec._tails(1, tables["xs"][::-1].copy())
    assert np.array_equal(tables["u2"], u[::-1])
    assert np.array_equal(tables["both2"], (c / dec.lambda_both)[::-1])
    assert np.array_equal(tables["only2"], np.maximum.accumulate(((u - c) / dec.lambda2_only)[::-1]))


def test_exchangeable_pair_decomposes_risk_one_once(decomposition):
    dec = decomposition
    assert dec.exchangeable
    assert all(a is b for a, b in zip(_risk2_parts(dec), (dec.sev1_both, dec.sev1_gridded, dec.sev1_only)))
    tables = dec._inverse_tables()
    for key in ("u", "only", "both"):
        assert tables[key + "2"] is tables[key + "1"]
    # the shared parts are the bits risk 2's own evaluation gives
    for shared, direct in zip(_risk2_parts(dec), dec._components(1, dec.nodes)):
        assert np.array_equal(shared._masses, direct._masses)
    xs = np.linspace(0.0, dec._extent(1e-14), 4097)
    for first, second in zip(dec._tails(0, xs), dec._tails(1, xs)):
        assert np.array_equal(first, second)
    _assert_tables_are_risk2s_own(dec)


def _built_risk_samplers(monkeypatch, market, shares):
    """The ids of the risk laws whose ``sampler()`` the bivariate simulator's draw builds, in order."""
    built = []
    for cls in {type(risk.severity) for risk in (market.risk1, market.risk2)}:
        monkeypatch.setattr(cls, "sampler", lambda self, make=cls.sampler: built.append(id(self)) or make(self))
    _company_draw(lb.decompose(market, 2.0), shares)
    return built


def test_independent_exchangeable_pair_holds_one_risk_sampler(indep_market, shares_at_04, monkeypatch):
    assert _built_risk_samplers(monkeypatch, indep_market, shares_at_04) == [id(indep_market.risk1.severity)]


def test_equal_laws_in_distinct_objects_share(decomposition):
    """Two Gamma(2, 500) objects, as a two-risk preset's config builds them, share too."""
    from lundberg.config import parse_config
    from lundberg.presets import figure_config

    cfg = parse_config(figure_config("fig5"))
    risk1, risk2 = cfg.risks
    assert risk1.severity is not risk2.severity
    dec = lb.decompose(lb.MarketSpec(risk1, risk2, cfg.levy), 2.0)
    assert dec.exchangeable
    assert all(a is b for a, b in zip(_risk2_parts(dec), (dec.sev1_both, dec.sev1_gridded, dec.sev1_only)))
    for name in ("sev1_only", "sev2_only", "sev1_both", "sev2_both", "sev1_gridded", "sev_sum_both"):
        assert np.array_equal(getattr(dec, name)._masses, getattr(decomposition, name)._masses), name


@pytest.mark.parametrize("changes", [{"intensity": 600.0}, {"scale": 400.0}])
def test_non_exchangeable_pair_shares_nothing(dep_market, changes, shares_at_04, monkeypatch):
    dec = lb.decompose(_asymmetric_market(dep_market, **changes), 2.0)
    assert not dec.exchangeable
    for first, second in zip((dec.sev1_both, dec.sev1_gridded, dec.sev1_only), _risk2_parts(dec)):
        assert first is not second
    for part, direct in zip(_risk2_parts(dec), dec._components(1, dec.nodes)):
        assert np.array_equal(part._masses, direct._masses)
    tables = dec._inverse_tables()
    assert all(tables[key + "2"] is not tables[key + "1"] for key in ("u", "only", "both"))
    _assert_tables_are_risk2s_own(dec)
    independent = lb.MarketSpec(dec.market.risk1, dec.market.risk2)
    assert _built_risk_samplers(monkeypatch, independent, shares_at_04) == [
        id(independent.risk1.severity), id(independent.risk2.severity)]


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
    shares = AcquisitionShares(p1=0.3, p2=0.3, both=0.0)
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
    shares = AcquisitionShares(p1=0.0, p2=0.0, both=0.0)
    with pytest.raises(ValidationError):
        lb.company_exposure(dep_market, shares, (0.4, 0.4), demands, (100.0,),
                            decomposition=decomposition)


def test_company_claim_model_weights(decomposition, shares_at_04):
    lam_t, sev_t, lam_h, sev_h = _company_claim_model(decomposition, shares_at_04)
    s = shares_at_04
    assert lam_t == pytest.approx(s.p1 * 800 + s.p2 * 800 - s.both * 400, rel=1e-12)
    assert lam_h == pytest.approx(s.p1 * 800 + s.p2 * 800, rel=1e-12)
    expected_w = np.array([
        s.p1 * 400, s.p2 * 400, (s.p1 - s.both) * 400, (s.p2 - s.both) * 400, s.both * 400,
    ]) / lam_t
    assert_allclose(sev_t._w, expected_w, rtol=1e-12)


def test_company_model_evaluates_each_distinct_gridded_part_once(decomposition, shares_at_04, monkeypatch):
    # an exchangeable pair's mixture holds sev1_only and sev1_both twice each; a solve lays out each
    # distinct part's segments once for sbar and once for ssbar, and a sampler builds its table once
    calls = collections.Counter()

    def counted(name):
        method = getattr(lb.Gridded, name)

        def call(self, *args):
            calls[name, id(self)] += 1
            return method(self, *args)
        return call

    for name in ("_segments", "sampler"):
        monkeypatch.setattr(lb.Gridded, name, counted(name))
    lam, sev, _, _ = _company_claim_model(decomposition, shares_at_04)
    lb.solve_survival(lam, sev, 1.1 * lam * sev.mean, lb.SolverConfig(grid_step=2.0, x_max=4000.0))
    sev.sampler()
    parts = [id(decomposition.sev1_only), id(decomposition.sev1_both), id(decomposition.sev_sum_both)]
    assert calls == {**{("_segments", k): 2 for k in parts}, **{("sampler", k): 1 for k in parts}}


@pytest.mark.parametrize("edge, in_range", [((0.5, 0.5, 0.5 + 1e-12), (0.5, 0.5, 0.5)),
                                            ((0.3, 0.4, -1e-12), (0.3, 0.4, 0.0))])
def test_company_model_reads_shares_in_range(edge, in_range, dep_market, demands, decomposition):
    # AcquisitionShares accepts a joint share 1e-12 past a bound: the solver's model and the
    # simulator's rates are those of the shares at the bound
    edge, in_range = AcquisitionShares(*edge), AcquisitionShares(*in_range)
    got, want = (lb.company_exposure(dep_market, s, (0.4, 0.4), demands, (0.0,), decomposition=decomposition)
                 for s in (edge, in_range))
    assert (got.intensity, got.severity.fingerprint()) == (want.intensity, want.severity.fingerprint())
    rates = stream_rates(decomposition, edge)
    assert np.array_equal(rates, stream_rates(decomposition, in_range))
    w = got.severity._w * got.intensity
    assert_allclose(rates, [w[0] + w[2], w[1] + w[3], w[4]], rtol=1e-12)


def stream_claim_counts(decomposition, shares, horizon, paths, seed):
    """Count the simulator's claims per stream over a fixed horizon, ignoring ruin.

    Drives the weighted-part draw at the simulator's ``stream_rates`` path
    by path, each stream drawing its own index, so the counts exercise the
    superposition and thinning at the rates the simulator uses.
    """
    rates = stream_rates(decomposition, shares)
    total = float(rates.sum())
    pick = distributions._weighted_draw(rates / total, [lambda rng, n, k=k: np.full(n, k) for k in range(3)])
    rng = _block_rng(seed, 0)
    counts = np.zeros(3, dtype=np.int64)
    for _ in range(paths):
        t = 0.0
        while True:
            tt = t + np.cumsum(rng.exponential(1.0 / total, _CHUNK))
            within = int(np.searchsorted(tt, horizon, side="right"))
            counts += np.bincount(pick(rng, within).astype(np.int64), minlength=3)
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
