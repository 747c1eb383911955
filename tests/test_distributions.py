import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid

import lundberg as lb
from lundberg import distributions
from lundberg.distributions import JointGridded, integrated_tails, mixture, sum_distribution
from lundberg.errors import ValidationError


def model_zoo():
    return [
        lb.Exponential(1000.0),
        lb.Gamma(2.0, 500.0),
        lb.Gamma(0.7, 1500.0),
        mixture([0.3, 0.7], [lb.Exponential(400.0), lb.Gamma(2.0, 500.0)]),
        lb.Gridded([50.0, 120.0, 400.0, 900.0], [0.1, 0.4, 0.3, 0.2]),
    ]


# ---------------------------------------------------------------------------
# cdf basics
# ---------------------------------------------------------------------------

def test_cdf_is_zero_at_and_below_origin():
    for model in model_zoo():
        assert model.cdf(0.0) == 0.0
        assert model.cdf(-3.5) == 0.0


def test_gamma_cdf_tends_to_one():
    assert lb.Gamma(2.0, 500.0).cdf(1e9) == pytest.approx(1.0, abs=1e-12)


def test_gamma_cdf_matches_density_quadrature():
    # independent oracle: Simpson quadrature of the gamma density
    import math

    from scipy.integrate import simpson

    a, k, x = 2.0, 500.0, 1000.0
    ys = np.linspace(0.0, x, 200_001)
    density = ys ** (a - 1) * np.exp(-ys / k) / (k**a * math.gamma(a))
    oracle = simpson(density, x=ys)
    assert_allclose(lb.Gamma(a, k).cdf(x), oracle, rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=4),
    x1=st.floats(min_value=0.0, max_value=5e3),
    x2=st.floats(min_value=0.0, max_value=5e3),
)
def test_cdf_monotone(idx, x1, x2):
    model = model_zoo()[idx]
    lo, hi = sorted((x1, x2))
    assert model.cdf(lo) <= model.cdf(hi) + 1e-15


def test_sf_complements_cdf():
    xs = np.linspace(0.0, 6000.0, 37)
    for model in model_zoo():
        assert_allclose(model.sf(xs) + model.cdf(xs), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# integrated tails
# ---------------------------------------------------------------------------

def test_exponential_sbar_closed_form():
    mu = 1000.0
    tails = integrated_tails(lb.Exponential(mu))
    assert_allclose(tails.sbar(mu), mu * (1.0 - np.exp(-1.0)), rtol=1e-14)


def test_sbar_zero_at_origin_and_mean_at_infinity():
    for model in model_zoo():
        tails = integrated_tails(model)
        assert tails.sbar(0.0) == 0.0
        assert tails.ssbar(0.0) == 0.0
        assert_allclose(tails.sbar(5e5), model.mean, rtol=1e-9)


def test_sbar_matches_trapezoid_quadrature():
    # brute-force oracle on 100 random points per closed-form model; the
    # oracle grid must be fine enough that its own O(h^2) error stays
    # below the 1e-8 relative target, which needs a smooth survival
    smooth = [
        lb.Exponential(1000.0),
        lb.Gamma(2.0, 500.0),
        lb.Gamma(1.6, 1500.0),
        mixture([0.3, 0.7], [lb.Exponential(400.0), lb.Gamma(2.0, 500.0)]),
    ]
    rng = np.random.default_rng(5)
    for model in smooth:
        tails = integrated_tails(model)
        xs = rng.uniform(1.0, 6000.0, size=100)
        for x in xs:
            grid = np.linspace(0.0, x, 200_001)
            brute = trapezoid(model.sf(grid), grid)
            assert_allclose(tails.sbar(x), brute, rtol=1e-8, atol=1e-10)


def test_gridded_sbar_is_exact_segment_sum():
    model = lb.Gridded([50.0, 120.0, 400.0, 900.0], [0.1, 0.4, 0.3, 0.2])
    tails = integrated_tails(model)
    # piecewise-constant survival: integrate each segment by hand
    for x in (30.0, 50.0, 77.0, 399.9, 400.0, 2000.0):
        edges = np.concatenate(([0.0], model._atoms))
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            if x <= lo:
                break
            total += model.sf(lo) * (min(hi, x) - lo)
        assert_allclose(tails.sbar(x), total, rtol=1e-14)


def test_ssbar_matches_quadrature_of_sbar():
    rng = np.random.default_rng(6)
    for model in model_zoo():
        tails = integrated_tails(model)
        for x in rng.uniform(10.0, 4000.0, size=5):
            grid = np.linspace(0.0, x, 40_001)
            brute = trapezoid(tails.sbar(grid), grid)
            assert_allclose(tails.ssbar(x), brute, rtol=1e-7)


def test_sbar_concave_nondecreasing():
    xs = np.linspace(0.0, 8000.0, 200)
    for model in model_zoo():
        sb = integrated_tails(model).sbar(xs)
        assert np.all(np.diff(sb) >= -1e-12)
        assert np.all(np.diff(np.diff(sb)) <= 1e-9)


class _OpaqueExponential(lb.SeverityModel):
    """Exponential without closed-form tails, to exercise the quadrature path."""

    def __init__(self, mean):
        self._inner = lb.Exponential(mean)

    def cdf(self, x):
        return self._inner.cdf(x)

    @property
    def mean(self):
        return self._inner.mean

    def sample(self, rng, size):
        return self._inner.sample(rng, size)

    def describe(self):
        return {"kind": "opaque-exponential", "mean": self._inner.mean}


def test_quadrature_fallback_matches_closed_form():
    mu = 700.0
    exact = integrated_tails(lb.Exponential(mu))
    quad = integrated_tails(_OpaqueExponential(mu))
    for x in (3.0, 250.0, 1600.0):
        assert_allclose(quad.sbar(x), exact.sbar(x), rtol=1e-9)
        assert_allclose(quad.ssbar(x), exact.ssbar(x), rtol=1e-9)


def _pinned_models():
    sev = lb.Gamma(2.0, 500.0)
    risk = lb.CompoundPoissonSpec(800.0, sev)
    grid = lb.decompose(lb.MarketSpec(risk, risk, lb.ClaytonLevyCopula(1.0)), 25.0).sev1_only
    return {
        "exponential": lb.Exponential(700.0),
        "gamma": lb.Gamma(2.5, 400.0),
        "mixture": lb.Mixture([0.3, 0.0, 0.7], [lb.Exponential(300.0), lb.Gamma(4.0, 50.0),
                                                lb.Gamma(2.5, 400.0)]),
        "gridded": grid,  # atoms 25, 50, ..., 15550
        "gridded-mixture": lb.Mixture([0.4, 0.6], [grid, lb.Exponential(700.0)]),
    }


_PIN_X = np.array([-50.0, 0.0, 12.5, 25.0, 50.0, 137.5, 1000.0, 15550.0, 40000.0, 1e6])
_PIN_Q = np.array([-0.5, 0.0, 1e-300, 1e-12, 1e-3, 0.1, 0.5, 0.9, 1.0, 1.5])
# SHA-256 of the float64 values at _PIN_X (isf: at _PIN_Q), recorded on numpy 2.4.6 / scipy 1.17.1
_SEVERITY_PINS = {
    ("exponential", "cdf"): "dfd84c8de909abf159d86b638de6c8570120ae5b07ea1200f541079b87600f23",
    ("exponential", "sf"): "055f8b3dbc2b747ea8e765bda1867989f01092dba7730bd176bb30a6d3cc5a80",
    ("exponential", "isf"): "329f87f38ad9cd072db54b9f098afe2eb9f794cf2dccc55749a066066e4549ec",
    ("exponential", "sbar"): "6e053c43147c9d4eaade3062dad5d34baee9254c6d787ae5642216eb6d1bb768",
    ("exponential", "ssbar"): "99d73661bf08286fb50a179bea22feb1fc5204532aeef1be823557c92a6f0556",
    ("gamma", "cdf"): "7b8725150d6ee6f75933dce2b9a52a3b45c8eb45c390e005d35a5e61fc7d8f7c",
    ("gamma", "sf"): "deab35bbff93f4e360bf97d8c447bc8f2b594d3a0c5777c9be2fc047167a2615",
    ("gamma", "isf"): "5cf2e839ec6d1420e0d8bc2bd7850280201d60e3aeda42749d0f8d350c9a75bd",
    ("gamma", "sbar"): "903655b7c64abb7f7b739cb987eca5dc359b19b92f922ebf3178273174151c2f",
    ("gamma", "ssbar"): "2427bf6f4071a4f7fbcc1b22dafc22cdb9ff9da5d645891a1a1f0ea6c0d5ceae",
    ("mixture", "cdf"): "da6cd65fc0caa20bf5455cf7a0425762c044e938f26c4e9adb64ef0dc6a9b80a",
    ("mixture", "sf"): "67f352a6566a21947438015ada57247d06a18e7ea24535835d294693f5620cb3",
    ("mixture", "isf"): "23aea51a879a334f902f553eebe7a67407ef595450feced075ba7c22c4370570",
    ("mixture", "sbar"): "7f700e1b68facebd8564fea5df98ad2526b5c34a2c49edf25c29c0cf032c8aa9",
    ("mixture", "ssbar"): "7c1f1f41a2a63685c83ef421c2713284f5e6269944240d4ad170a26e27ab1671",
    ("gridded", "cdf"): "9fa4d7a244b08b8dffc4355fa562140742abce98058a4660a7f1e1acfaeffc60",
    ("gridded", "sf"): "fa073185729c9deea9ef4c500d923b24fdc04fd8440cec6c88104feecd16bae4",
    ("gridded", "isf"): "43a9d182c23786afa91357b50ee200e3d83a6774f8ad3176d6bff907fd0692b0",
    ("gridded", "sbar"): "cf713ce8b5eb45e9b14b7972c62138cdb2a5ee8db4f41c7c6970711f21a60f55",
    ("gridded", "ssbar"): "74b8d55dae3a6f4f63a6e4c8b780614ec1a2f411e183753751227df9b8920aec",
    ("gridded-mixture", "cdf"): "d35b558f77374725a4bda58abe4e6ddde0a33ae9e04433f2e00802095c0446f3",
    ("gridded-mixture", "sf"): "92b394b4735a916b953713d83056227a77032fd21592b48f33bf83f0cd254e79",
    ("gridded-mixture", "isf"): "488865387e13e592c90a28311af525ae9730dde3f0383a7619dd67c746ca933c",
    ("gridded-mixture", "sbar"): "7762f0154384292c130f133af10362f1ed898d61db5ee87d8c49b64ffca0350e",
    ("gridded-mixture", "ssbar"): "293c47a62dab2719a31f939938d87315030049623cd0b8532d69a9d6ee0844fd",
}


@pytest.mark.parametrize("name", ["exponential", "gamma", "mixture", "gridded", "gridded-mixture"])
def test_builtin_severity_values_are_pinned(name):
    """Every built-in model's F, F̄, isf and integrated tails keep their bits.

    The abscissas cover negative claims, 0, atoms of the gridded part and
    points past its support; the probabilities cover q < 0, 0, 1 and q > 1.
    A scalar input returns a float equal to that of a one-element array.
    """
    model = _pinned_models()[name]
    tails = integrated_tails(model)
    for method, f, args in [("cdf", model.cdf, _PIN_X), ("sf", model.sf, _PIN_X),
                            ("isf", model.isf, _PIN_Q), ("sbar", tails.sbar, _PIN_X),
                            ("ssbar", tails.ssbar, _PIN_X)]:
        out = f(args)
        assert out.dtype == np.float64 and out.shape == args.shape
        assert hashlib.sha256(out.tobytes()).hexdigest() == _SEVERITY_PINS[name, method], method
        for a in args:
            value = f(float(a))
            assert isinstance(value, float) and value == f(np.array([a]))[0], (method, a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["exponential", "gamma", "mixture", "gridded", "gridded-mixture",
                                  "quadrature"])
def test_integrated_tails_at_infinity_are_the_mean_and_inf(name):
    """sbar(inf) is E[Y] and ssbar(inf) is inf, scalar or in an array, with no warning.

    The finite elements of an array keep the values of an all-finite call.
    """
    model = _OpaqueExponential(700.0) if name == "quadrature" else _pinned_models()[name]
    tails = integrated_tails(model)
    assert tails.sbar(np.inf) == model.mean
    assert tails.ssbar(np.inf) == np.inf
    x = np.array([np.inf, 12.5, 1000.0, np.inf, -np.inf])
    finite = np.array([12.5, 1000.0, 0.0])
    for f, limit in [(tails.sbar, model.mean), (tails.ssbar, np.inf)]:
        out = f(x)
        assert out.tobytes() == np.array([limit, *f(finite)[:2], limit, 0.0]).tobytes()


@pytest.mark.parametrize("name", ["mixture", "gridded-mixture"])
def test_bisection_isf_of_each_element_is_its_scalar_call(name):
    model = _pinned_models()[name]
    assert model.isf(1.0) == model.isf(1.5) == 0.0
    batch = model.isf(_PIN_Q)
    assert batch.tobytes() == np.array([model.isf(float(q)) for q in _PIN_Q]).tobytes()
    assert model.isf(np.array([1e-12, 1.0]))[1] == 0.0


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------

def test_mixture_single_component_is_identity():
    comp = lb.Exponential(500.0)
    assert mixture([1.0], [comp]) is comp


def test_mixture_of_identical_components_equals_component():
    comp = lb.Gamma(2.0, 500.0)
    mixed = mixture([0.3, 0.7], [comp, comp])
    xs = np.linspace(0.0, 5000.0, 23)
    assert_allclose(mixed.cdf(xs), comp.cdf(xs), rtol=1e-14)


def test_mixture_mean_is_weighted_mean():
    mixed = mixture([0.5, 0.5], [lb.Exponential(1000.0), lb.Exponential(2000.0)])
    assert_allclose(mixed.mean, 1500.0, rtol=1e-10)


@settings(max_examples=50, deadline=None)
@given(w=st.floats(min_value=0.0, max_value=1.0), m1=st.floats(0.1, 1e4), m2=st.floats(0.1, 1e4))
def test_mixture_mean_identity(w, m1, m2):
    mixed = lb.Mixture([w, 1.0 - w], [lb.Exponential(m1), lb.Exponential(m2)])
    assert_allclose(mixed.mean, w * m1 + (1 - w) * m2, rtol=1e-12)


def test_mixture_rejects_bad_weights():
    comps = [lb.Exponential(100.0), lb.Exponential(200.0)]
    with pytest.raises(ValidationError):
        mixture([-0.1, 1.1], comps)
    with pytest.raises(ValidationError):
        mixture([0.5, 0.6], comps)


def test_mixture_zero_weight_component_allowed():
    mixed = lb.Mixture([1.0, 0.0], [lb.Exponential(100.0), lb.Gamma(2.0, 500.0)])
    assert_allclose(mixed.cdf(150.0), lb.Exponential(100.0).cdf(150.0), rtol=1e-14)


# ---------------------------------------------------------------------------
# gridded models
# ---------------------------------------------------------------------------

def test_gridded_from_survival_mass_and_mean():
    nodes = np.linspace(0.0, 30.0, 301)
    sf = np.exp(-nodes / 3.0)
    model = lb.Gridded.from_survival(nodes, sf)
    assert_allclose(model._masses.sum(), 1.0, atol=1e-12)
    # atoms on right endpoints overestimate the mean by at most one step
    assert 3.0 <= model.mean <= 3.0 + 0.1 + 1e-9


def test_gridded_from_survival_needs_cells_from_zero():
    with pytest.raises(ValidationError, match="start at 0"):
        lb.Gridded.from_survival([1.0, 2.0, 3.0], [1.0, 0.5, 0.0])


def test_gridded_sampling_matches_masses(rng):
    model = lb.Gridded([1.0, 2.0, 5.0], [0.2, 0.5, 0.3])
    draws = model.sample(rng, 200_000)
    freq = np.array([(draws == a).mean() for a in model._atoms])
    assert_allclose(freq, model._masses, atol=3 * np.sqrt(0.5 * 0.5 / 200_000) + 1e-12)
    assert_allclose(draws.mean(), model.mean, rtol=0.01)


def test_gridded_tails_are_the_same_bits_in_any_order():
    model = _pinned_models()["gridded"]
    x = np.concatenate((model._atoms[::7], model._atoms[::5] + 3.0, [0.0, 1e6]))
    first = integrated_tails(model)
    sb, ssb = first.sbar(x).tobytes(), first.ssbar(x).tobytes()
    second = integrated_tails(model)
    assert second.ssbar(x).tobytes() == ssb and second.sbar(x).tobytes() == sb
    assert first.sbar(x).tobytes() == sb and first.ssbar(x).tobytes() == ssb


def test_gridded_isf_inverts_survival():
    model = lb.Gridded([1.0, 2.0, 5.0], [0.2, 0.5, 0.3])
    assert model.isf(0.9) == 1.0
    assert model.isf(0.5) == 2.0
    assert model.isf(0.2) == 5.0


# ---------------------------------------------------------------------------
# sum of a dependent pair
# ---------------------------------------------------------------------------

def test_sum_distribution_diagonal_pair_is_doubled_claim():
    # complete dependence with identical exponential marginals
    nodes = np.linspace(0.0, 12.0, 601)
    sf = np.exp(-nodes)
    masses = -np.diff(sf)
    masses[-1] += sf[-1]
    joint = joint_from_matrix(nodes[1], np.diag(masses))
    doubled = sum_distribution(joint)
    single = lb.Gridded.from_survival(nodes, sf)
    xs = np.linspace(0.0, 20.0, 41)
    assert_allclose(doubled.cdf(xs), single.cdf(xs / 2.0), atol=1e-12)


def test_sum_distribution_point_masses():
    matrix = np.zeros((10, 10))
    matrix[2, 4] = 1.0  # atoms at 3 and 5
    joint = joint_from_matrix(1.0, matrix)
    total = sum_distribution(joint)
    assert_allclose(total.mean, 8.0, atol=1e-12)
    assert total.cdf(7.999) == 0.0
    assert total.cdf(8.0) == 1.0


def test_sum_distribution_mass_and_mean(decomposition):
    joint = decomposition.joint_both
    total = decomposition.sev_sum_both
    assert_allclose(total._masses.sum(), 1.0, atol=1e-9)
    m1, m2 = marginal_masses(joint)
    assert_allclose(total.mean, decomposition.sev1_both.mean + decomposition.sev2_both.mean,
                    rtol=1e-12)
    assert_allclose(m1.sum(), 1.0, atol=1e-9)
    assert_allclose(m2.sum(), 1.0, atol=1e-9)


def test_sum_distribution_against_pair_sampling_oracle(decomposition):
    # Monte Carlo oracle: exact copula pair sampler, no gridding involved
    rng = np.random.default_rng(99)
    y1, y2 = decomposition.sample_pair_both(rng, 100_000)
    total = y1 + y2
    n = total.size
    for x in np.linspace(800.0, 6000.0, 10):
        p_emp = float(np.mean(total <= x))
        p_grid = float(decomposition.sev_sum_both.cdf(x))
        tol = 3.0 * np.sqrt(max(p_emp * (1 - p_emp), 0.05) / n) + 2e-3
        assert abs(p_emp - p_grid) < tol, (x, p_emp, p_grid)


def joint_from_matrix(step, matrix):
    """A joint lattice of grid step ``step`` that streams the rows of a whole cell-mass matrix."""
    matrix = np.asarray(matrix, dtype=float)
    return JointGridded(step, matrix.shape[0], lambda a, b: matrix[a:b])


def row_masses(joint, a, b):
    """Rows ``a:b`` of the lattice stacked into a new (b - a) x n array."""
    block = np.empty((b - a, joint.ncells))
    for k, row in enumerate(joint.rows(a, b)):
        block[k] = row
    return block


def marginal_masses(joint, chunk=256):
    """Row and column sums of the lattice: the two single-coordinate atom masses."""
    m1 = np.zeros(joint.ncells)
    m2 = np.zeros(joint.ncells)
    for a in range(0, joint.ncells, chunk):
        b = min(a + chunk, joint.ncells)
        rows = row_masses(joint, a, b)
        m1[a:b] = rows.sum(axis=1)
        m2 += rows.sum(axis=0)
    return m1, m2


def reference_sum_distribution(joint, chunk=256):
    """The bincount walk over the lattice that the shifted slice-adds replace."""
    n = joint.ncells
    out = np.zeros(2 * n - 1)
    cols = np.arange(n)
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        rows = row_masses(joint, a, b)
        idx = (np.arange(a, b)[:, None] + cols[None, :]).ravel()
        out += np.bincount(idx, weights=rows.ravel(), minlength=2 * n - 1)
    return lb.Gridded(joint.step * np.arange(2, 2 * n + 1), out)


def _random_lattice(n, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    matrix[rng.integers(n), rng.integers(n)] += 1.0  # never all zero
    return joint_from_matrix(0.5, matrix / matrix.sum())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    chunk=st.sampled_from([1, 3, 8, 256]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=1, chunk=1, seed=0)
@example(n=13, chunk=3, seed=1)
@example(n=257, chunk=256, seed=2)
@example(n=300, chunk=8, seed=3)
def test_sum_distribution_matches_bincount_reference_bit_for_bit(n, chunk, seed):
    joint = _random_lattice(n, seed)
    with pytest.MonkeyPatch.context() as patch:  # a function-scoped fixture would span every example
        patch.setattr(distributions, "_LATTICE_CHUNK", chunk)
        new = sum_distribution(joint)
    ref = reference_sum_distribution(joint, chunk=chunk)
    assert np.array_equal(new._masses, ref._masses)
    assert np.array_equal(new._atoms, ref._atoms)


def test_sum_distribution_rejects_negative_cell():
    joint = _random_lattice(20, 5)
    matrix = row_masses(joint, 0, 20)
    matrix[7, 11] = -1e-9
    with pytest.raises(ValidationError, match="nonnegative"):
        sum_distribution(joint_from_matrix(joint.step, matrix))


def test_sum_distribution_is_the_same_bytes_in_every_pool_mode(pool_modes, monkeypatch):
    joint = _random_lattice(301, 8)
    monkeypatch.setattr(distributions, "_LATTICE_CHUNK", 37)  # 8 chunks of 37 and one of 5
    runs = pool_modes(lambda: sum_distribution(joint))
    for run in runs[1:]:
        assert np.array_equal(run._masses, runs[0]._masses)
        assert np.array_equal(run._atoms, runs[0]._atoms)


def test_negative_cell_found_in_a_worker_reaches_the_caller(monkeypatch):
    from concurrent.futures.process import _RemoteTraceback

    from lundberg import _pool

    monkeypatch.setattr(_pool, "_MIN_WORK", 0)
    monkeypatch.setattr(_pool, "_worker_count", lambda jobs: min(2, jobs))
    monkeypatch.setattr(distributions, "_LATTICE_CHUNK", 8)
    joint = _random_lattice(40, 5)
    matrix = row_masses(joint, 0, 40)
    matrix[29, 11] = -1e-9  # in the fourth chunk of 8 rows
    with pytest.raises(ValidationError, match=r"nonnegative, min .*-1e-09") as info:
        sum_distribution(joint_from_matrix(joint.step, matrix))
    assert isinstance(info.value.__cause__, _RemoteTraceback)


def test_sum_distribution_clamps_float_dust_without_touching_the_input():
    joint = _random_lattice(20, 6)
    matrix = row_masses(joint, 0, 20)
    i, j = np.argwhere(matrix == 0.0)[0]
    matrix[i, j] = -1e-13
    total = sum_distribution(joint_from_matrix(joint.step, matrix))
    assert matrix[i, j] == -1e-13
    clamped = np.maximum(matrix, 0.0)
    expected = reference_sum_distribution(joint_from_matrix(joint.step, clamped))
    assert np.array_equal(total._masses, expected._masses)


def test_joint_grid_requires_a_positive_step_and_a_cell():
    for step in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="step must be positive and finite"):
            joint_from_matrix(step, np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="at least one cell"):
        joint_from_matrix(1.0, np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def test_closed_form_fingerprints_are_stable():
    # recorded before gridded models stopped going through JSON
    assert lb.Exponential(1000.0).fingerprint() == "b8f5c9a5333e"
    assert lb.Gamma(2.0, 500.0).fingerprint() == "4d30112dba12"
    mixed = mixture([0.3, 0.7], [lb.Gamma(2.0, 500.0), lb.Exponential(400.0)])
    assert mixed.fingerprint() == "29e0eedb8b14"


def test_gridded_fingerprint_tracks_every_mass():
    atoms = np.arange(1.0, 101.0)
    masses = np.full(100, 0.01)
    base = lb.Gridded(atoms, masses)
    assert lb.Gridded(atoms, masses.copy()).fingerprint() == base.fingerprint()
    moved = masses.copy()
    moved[41] += 1e-12
    moved[42] -= 1e-12
    assert lb.Gridded(atoms, moved).fingerprint() != base.fingerprint()
    exp = lb.Exponential(400.0)
    mixed = mixture([0.5, 0.5], [base, exp])
    assert mixture([0.5, 0.5], [lb.Gridded(atoms, masses), exp]).fingerprint() == mixed.fingerprint()
    assert mixture([0.5, 0.5], [lb.Gridded(atoms, moved), exp]).fingerprint() != mixed.fingerprint()
    assert mixture([0.4, 0.6], [base, exp]).fingerprint() != mixed.fingerprint()
