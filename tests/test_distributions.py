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
# SHA-256 of the float64 values at _PIN_X (isf: at _PIN_Q), recorded on numpy 2.4.6 / scipy 1.17.1;
# the exponential, mixture and gridded-mixture isf pins since q <= 0 reads the end of the support
_SEVERITY_PINS = {
    ("exponential", "cdf"): "dfd84c8de909abf159d86b638de6c8570120ae5b07ea1200f541079b87600f23",
    ("exponential", "sf"): "055f8b3dbc2b747ea8e765bda1867989f01092dba7730bd176bb30a6d3cc5a80",
    ("exponential", "isf"): "c572c1ef93fda4546715d8c936b4add3b9f89d7dd7c17e7e813fea52c1cd4101",
    ("exponential", "sbar"): "6e053c43147c9d4eaade3062dad5d34baee9254c6d787ae5642216eb6d1bb768",
    ("exponential", "ssbar"): "99d73661bf08286fb50a179bea22feb1fc5204532aeef1be823557c92a6f0556",
    ("gamma", "cdf"): "7b8725150d6ee6f75933dce2b9a52a3b45c8eb45c390e005d35a5e61fc7d8f7c",
    ("gamma", "sf"): "deab35bbff93f4e360bf97d8c447bc8f2b594d3a0c5777c9be2fc047167a2615",
    ("gamma", "isf"): "5cf2e839ec6d1420e0d8bc2bd7850280201d60e3aeda42749d0f8d350c9a75bd",
    ("gamma", "sbar"): "903655b7c64abb7f7b739cb987eca5dc359b19b92f922ebf3178273174151c2f",
    ("gamma", "ssbar"): "2427bf6f4071a4f7fbcc1b22dafc22cdb9ff9da5d645891a1a1f0ea6c0d5ceae",
    ("mixture", "cdf"): "da6cd65fc0caa20bf5455cf7a0425762c044e938f26c4e9adb64ef0dc6a9b80a",
    ("mixture", "sf"): "67f352a6566a21947438015ada57247d06a18e7ea24535835d294693f5620cb3",
    ("mixture", "isf"): "1a6ba5d3d8fa9630bcb1727bb31ba81716ac3a8305f1e4debea134dfddc6d764",
    ("mixture", "sbar"): "7f700e1b68facebd8564fea5df98ad2526b5c34a2c49edf25c29c0cf032c8aa9",
    ("mixture", "ssbar"): "7c1f1f41a2a63685c83ef421c2713284f5e6269944240d4ad170a26e27ab1671",
    ("gridded", "cdf"): "9fa4d7a244b08b8dffc4355fa562140742abce98058a4660a7f1e1acfaeffc60",
    ("gridded", "sf"): "fa073185729c9deea9ef4c500d923b24fdc04fd8440cec6c88104feecd16bae4",
    ("gridded", "isf"): "43a9d182c23786afa91357b50ee200e3d83a6774f8ad3176d6bff907fd0692b0",
    ("gridded", "sbar"): "cf713ce8b5eb45e9b14b7972c62138cdb2a5ee8db4f41c7c6970711f21a60f55",
    ("gridded", "ssbar"): "74b8d55dae3a6f4f63a6e4c8b780614ec1a2f411e183753751227df9b8920aec",
    ("gridded-mixture", "cdf"): "d35b558f77374725a4bda58abe4e6ddde0a33ae9e04433f2e00802095c0446f3",
    ("gridded-mixture", "sf"): "92b394b4735a916b953713d83056227a77032fd21592b48f33bf83f0cd254e79",
    ("gridded-mixture", "isf"): "914e2ca2aeac5397c5a32204f3e9459842feed9130b0d4c119edca450b5aa580",
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


def test_isf_reads_the_end_of_the_support_where_no_claim_size_reaches_q():
    """q <= 0, and a q below what F̄ keeps past the last atom, read the end of the support."""
    assert lb.Exponential(700.0).isf(0.0) == lb.Gamma(2.0, 500.0).isf(-0.5) == np.inf
    assert np.all(_pinned_models()["gridded-mixture"].isf(np.array([-0.5, 0.0])) == np.inf)
    atoms = 25.0 * np.arange(1.0, 101.0)
    masses = np.full(100, 0.01 * (1.0 - 5e-10))  # within the gridded tolerance of 1
    short = lb.Mixture([0.5, 0.5], [lb.Gridded(atoms, masses), lb.Gridded(2.0 * atoms, masses)])
    assert short.isf(np.array([-1.0, 0.0, 1e-12])).tolist() == [5000.0] * 3
    assert 0.0 < short.isf(0.3) < 5000.0
    risk = lb.CompoundPoissonSpec(800.0, short)
    decomposition = lb.decompose(lb.MarketSpec(risk, risk, lb.ClaytonLevyCopula(1.0)), 25.0)
    assert decomposition.nodes[-1] <= 5000.0


def test_bisection_isf_takes_one_running_sum_per_gridded_part(monkeypatch):
    grid = _pinned_models()["gridded"]
    model = lb.Mixture([0.5, 0.5], [grid, lb.Gridded(2.0 * grid._atoms, grid._masses)])
    want = model.isf(_PIN_Q)
    sums, cumsum = [], np.cumsum

    def counted(a, *args, **kwargs):
        sums.append(np.size(a))
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counted)
    assert model.isf(_PIN_Q).tobytes() == want.tobytes()
    assert sums == [grid._atoms.size] * 2
    sums.clear()
    model.isf(1e-3)
    assert sums == [grid._atoms.size] * 2


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


def test_mixture_reads_rounding_dust_in_a_weight_as_zero():
    comps = [lb.Exponential(100.0), lb.Gamma(2.0, 500.0)]
    weights = np.array([1.0 + 7e-13, -7e-13])  # a weight formed by subtraction
    mixed = lb.Mixture(weights, comps)
    assert mixed._w[1] == 0.0 and weights[1] == -7e-13
    with pytest.raises(ValidationError, match="mixture weights must be nonnegative, min -1e-11"):
        lb.Mixture([1.0 + 1e-11, -1e-11], comps)


def test_mass_check_messages_print_plain_floats():
    with pytest.raises(ValidationError, match="gridded masses must be nonnegative, min -0.5") as info:
        lb.Gridded([1.0, 2.0], [1.5, -0.5])
    assert "np.float64" not in str(info.value)


def test_mixture_zero_weight_component_allowed():
    mixed = lb.Mixture([1.0, 0.0], [lb.Exponential(100.0), lb.Gamma(2.0, 500.0)])
    assert_allclose(mixed.cdf(150.0), lb.Exponential(100.0).cdf(150.0), rtol=1e-14)


class _QueueRng:
    """Stands in for a generator: each random() call fills its shape with the next value."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, size):
        return np.full(size, self.values.pop(0))


class _Tagged(lb.Exponential):
    """Draws its tag, using no uniforms."""

    def __init__(self, tag):
        super().__init__(1.0)
        self.tag = float(tag)

    def sample(self, rng, size):
        return np.full(size, self.tag)


def test_top_uniform_never_reaches_a_zero_weight_mixture_part():
    weights = [0.7, 0.2, 0.1, 0.0]
    assert np.cumsum(weights)[-1] == 1.0 - 2.0**-53  # the largest uniform: not above the sum
    sample = lb.Mixture(weights, [_Tagged(k) for k in range(4)]).sampler()
    assert sample(_QueueRng(1.0 - 2.0**-53), 1).tolist() == [2.0]


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.7, 1.0]) | st.floats(1e-9, 1.0),
                     min_size=1, max_size=6).filter(any),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=0, max_value=40),
)
def test_weighted_draw_picks_the_half_open_interval_of_each_uniform(weights, seed, size):
    w = np.array(weights) / sum(weights)
    edges = np.cumsum(w)
    positive = np.flatnonzero(w > 0).tolist()
    # the edges themselves, 0 and the largest uniform among random ones
    rng = np.random.default_rng(seed)
    u = np.concatenate((edges[edges < 1.0], [0.0, 1.0 - 2.0**-53], rng.random(size)))
    rng.shuffle(u)
    calls = []

    def part(k):
        def draw(rng, n):
            calls.append((k, n))
            return np.full(n, float(k))
        return draw

    got = distributions._weighted_draw(w, [part(k) for k in range(w.size)])(_QueueRng(u), u.shape)
    # part j takes [edge_{j-1}, edge_j); the last part of positive weight takes all above
    want = [next((j for j in positive[:-1] if x < edges[j]), positive[-1]) for x in u]
    assert got.tolist() == want
    assert calls == [(j, want.count(j)) for j in positive if j in want]  # in order, none of weight 0


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


def test_gridded_takes_an_atom_at_zero_and_reads_zero_below_it():
    model = lb.Gridded([0.0, 1.0, 2.0], [0.3, 0.4, 0.3])
    assert model.cdf(-1.0) == 0.0 and model.cdf(0.0) == 0.3
    assert model.sf(-0.5) == 1.0 and model.isf(1.0) == 0.0
    assert list(model.cdf([-1.0, -0.0, 0.5, 1.0, 2.0])) == [0.0, 0.3, 0.3, 0.7, 1.0]
    mixed = lb.Mixture([0.5, 0.5], [model, lb.Exponential(2.0)])
    assert mixed.cdf(-1.0) == 0.0 and mixed.cdf(0.0) == 0.15
    with pytest.raises(ValidationError, match="gridded atoms must be nonnegative and finite"):
        lb.Gridded([-1.0, 1.0], [0.5, 0.5])


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


def test_gridded_owns_one_atom_array():
    """A gridded model retains at most one atom-sized array beyond its inputs.

    It keeps the caller's float atoms and masses; ``from_survival`` adds
    one array, the masses, and keeps a view of the nodes as its atoms.
    """
    import gc
    import tracemalloc

    nodes = np.linspace(0.0, 1e6, 10**6 + 1)
    survival = np.exp(-nodes / 2e5)
    masses = -np.diff(survival)
    masses[-1] += survival[-1]
    atom_array = 8 * (nodes.size - 1)
    for build in (lambda: lb.Gridded(nodes[1:], masses), lambda: lb.Gridded.from_survival(nodes, survival)):
        gc.collect()
        tracemalloc.start()
        try:
            model = build()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(model._atoms, nodes)
        assert retained <= 1.05 * atom_array, retained / atom_array


def _stored_cdf_reference(model):
    """cdf, sf, isf, sample, sbar and ssbar of ``model`` from a stored cdf ``np.cumsum(masses)``,
    with the expressions a gridded model used when it kept that array."""
    atoms, cum = model._atoms, np.cumsum(model._masses)
    breaks = np.concatenate(([0.0], atoms))
    seg_sf = np.concatenate(([1.0], 1.0 - cum))
    widths = np.diff(breaks)
    sb = np.concatenate(([0.0], np.cumsum(seg_sf[:-1] * widths)))
    ssb = np.concatenate(([0.0], np.cumsum(sb[:-1] * widths + 0.5 * seg_sf[:-1] * widths**2)))

    def cdf(x):
        idx = np.searchsorted(atoms, np.maximum(x, 0.0), side="right")
        return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)

    def sample(rng, size):
        u = rng.random(size) * cum[-1]
        return atoms[np.minimum(np.searchsorted(cum, u, side="right"), atoms.size - 1)]

    def tail(x, value, at_inf):
        top = x == np.inf
        x = np.where(top, 0.0, np.maximum(x, 0.0))
        j = np.searchsorted(breaks, x, side="right") - 1
        return np.where(top, at_inf, value(j, x - breaks[j]))

    return {
        "cdf": cdf,
        "sf": lambda x: 1.0 - cdf(x),
        "isf": lambda q: atoms[np.clip(np.searchsorted(cum, 1.0 - q, side="left"), 0, atoms.size - 1)],
        "sample": sample,
        "sbar": lambda x: tail(x, lambda j, d: sb[j] + seg_sf[j] * d, model.mean),
        "ssbar": lambda x: tail(x, lambda j, d: ssb[j] + sb[j] * d + 0.5 * seg_sf[j] * d * d, np.inf),
    }


@settings(max_examples=150, deadline=None)
@given(
    gaps=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=40),
    weights=st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
                     min_size=40, max_size=40),
    scale=st.sampled_from([1e-3, 1.0, 25.0, 1e4]),
    probes=st.lists(st.floats(min_value=-10.0, max_value=1e5), max_size=20),
    qs=st.lists(st.floats(min_value=-0.5, max_value=1.5), max_size=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(gaps=[1.0], weights=[1.0] + [0.0] * 39, scale=1.0, probes=[], qs=[], seed=0)
def test_gridded_values_equal_a_stored_cdf_bit_for_bit(gaps, weights, scale, probes, qs, seed):
    """Every value of a gridded model is the one a stored ``np.cumsum(masses)`` gives.

    Covers zero masses and claims at an atom, between atoms, below 0, at 0,
    beyond the last atom and at inf.
    """
    atoms = np.cumsum(gaps) * scale
    weights = np.array(weights[: atoms.size])
    if not weights.sum() > 0:
        weights[-1] = 1.0
    model = lb.Gridded(atoms, weights / weights.sum())
    x = np.concatenate((atoms, 0.5 * (atoms[1:] + atoms[:-1]), [-1.0, 0.0, atoms[-1] * 1.5, 1e12, np.inf],
                        np.asarray(probes) * scale))
    cum = np.cumsum(model._masses)
    q = np.concatenate(([0.0, 1.0, 1e-300], 1.0 - cum, cum, qs))
    ref = _stored_cdf_reference(model)
    tails = integrated_tails(model)
    finite = x[np.isfinite(x)]
    for name, f, args in [("cdf", model.cdf, x), ("sf", model.sf, x), ("isf", model.isf, q),
                          ("sbar", tails.sbar, x), ("ssbar", tails.ssbar, x),
                          ("sbar", tails.sbar, finite), ("ssbar", tails.ssbar, finite)]:
        assert f(args).tobytes() == ref[name](args).tobytes(), name
    got = model.sample(np.random.default_rng(seed), 64)
    assert got.tobytes() == ref["sample"](np.random.default_rng(seed), 64).tobytes()
    got = model.sampler()(np.random.default_rng(seed), (4, 16))
    assert got.tobytes() == ref["sample"](np.random.default_rng(seed), (4, 16)).tobytes()


def test_gridded_from_strided_columns_fingerprints_and_solves():
    """Atoms and masses read as columns of a table are hashed and solved like copies of them."""
    table = np.column_stack(([50.0, 120.0, 400.0, 900.0], [0.1, 0.4, 0.3, 0.2]))
    strided = lb.Gridded(table[:, 0], table[:, 1])
    copied = lb.Gridded(table[:, 0].copy(), table[:, 1].copy())
    assert strided.fingerprint() == copied.fingerprint()
    config = lb.SolverConfig(grid_step=10.0, x_max=2000.0)
    for solve in (lb.solve_survival, lb.solve_series):
        got, want = (solve(0.5, model, 200.0, config) for model in (strided, copied))
        assert got.survival.tobytes() == want.survival.tobytes()


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


def symmetric_from_matrix(step, matrix, formed=None):
    """A symmetric joint lattice over a whole matrix: its rows, or with ``half`` each row's
    contributions from the diagonal on (the cells past it doubled); the size of each row it
    yields is appended to ``formed``."""
    matrix = np.asarray(matrix, dtype=float)

    def rows(a, b, half=False):
        for i in range(a, b):
            if half:
                row = 2.0 * matrix[i, i:]
                row[0] = matrix[i, i]
            else:
                row = matrix[i]
            if formed is not None:
                formed.append(row.size)
            yield row
    return JointGridded(step, matrix.shape[0], rows, symmetric=True)


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


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    chunk=st.sampled_from([1, 3, 8, 256]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=1, chunk=1, seed=0)
@example(n=2, chunk=1, seed=4)
@example(n=257, chunk=256, seed=2)
def test_symmetric_lattice_sums_its_half_rows_to_the_full_sum(n, chunk, seed):
    # each off-diagonal cell counts twice, in another order than the full walk: equal to rounding
    matrix = row_masses(_random_lattice(n, seed), 0, n)
    matrix = (matrix + matrix.T) / 2.0
    formed = []
    with pytest.MonkeyPatch.context() as patch:  # a function-scoped fixture would span every example
        patch.setattr(distributions, "_LATTICE_CHUNK", chunk)
        half = sum_distribution(symmetric_from_matrix(0.5, matrix, formed))
    assert sum(formed) == n * (n + 1) // 2
    ref = reference_sum_distribution(joint_from_matrix(0.5, matrix), chunk=chunk)
    assert_allclose(half._masses, ref._masses, rtol=1e-13, atol=0.0)
    assert np.array_equal(half._atoms, ref._atoms)


def test_symmetric_lattice_checks_its_half_rows():
    matrix = row_masses(_random_lattice(20, 5), 0, 20)
    matrix = (matrix + matrix.T) / 2.0
    matrix[7, 11] = matrix[11, 7] = -1e-9  # in half row 7
    with pytest.raises(ValidationError, match="nonnegative"):
        sum_distribution(symmetric_from_matrix(0.5, matrix))


def test_sum_distribution_rejects_negative_cell():
    joint = _random_lattice(20, 5)
    matrix = row_masses(joint, 0, 20)
    matrix[7, 11] = -1e-9
    with pytest.raises(ValidationError, match="nonnegative"):
        sum_distribution(joint_from_matrix(joint.step, matrix))


def test_sum_distribution_rejects_a_lattice_whose_mass_is_off():
    joint = _random_lattice(20, 5)
    with pytest.raises(ValidationError, match="gridded masses must sum to 1"):
        sum_distribution(joint_from_matrix(joint.step, 1.1 * row_masses(joint, 0, 20)))


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


def test_symmetric_lattice_clamps_float_dust_in_its_half_rows():
    matrix = row_masses(_random_lattice(20, 6), 0, 20)
    matrix = (matrix + matrix.T) / 2.0
    i, j = np.argwhere(np.triu(matrix == 0.0, 1))[0]  # a cell past the diagonal, doubled in half row i
    matrix[i, j] = matrix[j, i] = -1e-13
    total = sum_distribution(symmetric_from_matrix(0.5, matrix))
    assert matrix[i, j] == matrix[j, i] == -1e-13
    expected = sum_distribution(symmetric_from_matrix(0.5, np.maximum(matrix, 0.0)))
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


def test_mixture_fingerprints_a_repeated_part_once(monkeypatch):
    gridded, exp = lb.Gridded([1.0, 2.0], [0.25, 0.75]), lb.Exponential(400.0)
    mixed = lb.Mixture([0.5, 0.25, 0.25], [gridded, exp, gridded])
    parts = "|".join(c.fingerprint() for c in (gridded, exp, gridded))  # the payload names every part
    expected = hashlib.sha1(b"mixture|" + mixed._w.tobytes() + parts.encode()).hexdigest()[:12]
    calls = []
    fingerprint = lb.SeverityModel.fingerprint
    monkeypatch.setattr(lb.SeverityModel, "fingerprint", lambda self: calls.append(self) or fingerprint(self))
    assert mixed.fingerprint() == expected
    assert sorted(map(id, calls)) == sorted(map(id, (mixed, gridded, exp)))
