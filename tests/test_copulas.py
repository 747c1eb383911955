import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid

import lundberg as lb
from lundberg.copulas import frank_tau, make_ordinary, tau_to_parameter
from lundberg.errors import ValidationError


def ordinary_families():
    return [
        lb.IndependenceCopula(),
        lb.ClaytonCopula(2.0),
        lb.ClaytonCopula(0.4),
        lb.GumbelCopula(2.0),
        lb.GumbelCopula(1.0),  # exactly independence
        lb.FrankCopula(5.736282706991311),
        lb.FrankCopula(-3.0),
    ]


# ---------------------------------------------------------------------------
# pointwise values and margins
# ---------------------------------------------------------------------------

def test_independence_is_the_product():
    assert lb.IndependenceCopula().cdf(0.3, 0.5) == pytest.approx(0.15, abs=1e-15)
    assert repr(lb.IndependenceCopula()) == "IndependenceCopula({'family': 'independence'})"


def test_uniform_margins():
    us = np.linspace(0.0, 1.0, 21)
    for cop in ordinary_families():
        assert_allclose(cop.cdf(us, np.ones_like(us)), us, atol=1e-12)
        assert_allclose(cop.cdf(np.ones_like(us), us), us, atol=1e-12)
        assert_allclose(cop.cdf(us, np.zeros_like(us)), 0.0, atol=1e-12)


def test_clayton_closed_form_value():
    # (0.5^-2 + 0.5^-2 - 1)^(-1/2) = 7^(-1/2)
    assert lb.ClaytonCopula(2.0).cdf(0.5, 0.5) == pytest.approx(7.0 ** -0.5, rel=1e-14)
    assert repr(lb.ClaytonCopula(2.0)) == "ClaytonCopula({'family': 'clayton', 'omega': 2.0})"


def test_gumbel_at_one_is_independence():
    g = lb.GumbelCopula(1.0)
    rng = np.random.default_rng(0)
    u, v = rng.random(50), rng.random(50)
    assert_allclose(g.cdf(u, v), u * v, rtol=1e-12)


def test_out_of_range_rejected():
    with pytest.raises(ValidationError):
        lb.ClaytonCopula(1.0).cdf(1.2, 0.5)
    with pytest.raises(ValidationError):
        lb.ClaytonCopula(1.0).cdf(0.5, -0.1)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_two_increasing_on_random_rectangles():
    rng = np.random.default_rng(42)
    u = np.sort(rng.random((1000, 2)), axis=1)
    v = np.sort(rng.random((1000, 2)), axis=1)
    for cop in ordinary_families():
        inc = (
            cop.cdf(u[:, 1], v[:, 1]) - cop.cdf(u[:, 1], v[:, 0])
            - cop.cdf(u[:, 0], v[:, 1]) + cop.cdf(u[:, 0], v[:, 0])
        )
        assert np.all(inc >= -1e-12), type(cop).__name__


def test_frechet_bounds():
    rng = np.random.default_rng(43)
    u, v = rng.random(1000), rng.random(1000)
    lower = np.maximum(u + v - 1.0, 0.0)
    upper = np.minimum(u, v)
    for cop in ordinary_families():
        c = cop.cdf(u, v)
        assert np.all(c >= lower - 1e-12)
        assert np.all(c <= upper + 1e-12)


# ---------------------------------------------------------------------------
# Levy copula
# ---------------------------------------------------------------------------

def test_levy_harmonic_value():
    assert lb.ClaytonLevyCopula(1.0).cdf(800.0, 800.0) == pytest.approx(400.0, rel=1e-14)


def test_levy_margins_and_grounding():
    cop = lb.ClaytonLevyCopula(1.3)
    assert cop.cdf(5.0, np.inf) == 5.0
    assert cop.cdf(np.inf, 7.0) == 7.0
    assert cop.cdf(5.0, 0.0) == 0.0
    assert cop.cdf(0.0, 7.0) == 0.0
    assert np.isinf(cop.cdf(np.inf, np.inf))


def test_levy_below_minimum_and_complete_dependence_limit():
    rng = np.random.default_rng(45)
    x, y = rng.uniform(0.1, 1000.0, 500), rng.uniform(0.1, 1000.0, 500)
    mid = lb.ClaytonLevyCopula(2.0).cdf(x, y)
    assert np.all(mid <= np.minimum(x, y) + 1e-12)
    m = np.minimum(x, y)
    # the deviation from min peaks at equal arguments, where the value is
    # exactly min * 2^(-1/omega); a 1% band therefore needs omega >= 69
    tight = lb.ClaytonLevyCopula(50.0).cdf(x, y)
    worst = 1.0 - 2.0 ** (-1.0 / 50.0)
    assert np.all(np.abs(tight - m) <= worst * m * (1 + 1e-12))
    tighter = lb.ClaytonLevyCopula(100.0).cdf(x, y)
    assert np.all(np.abs(tighter - m) <= 0.01 * m)


def test_levy_two_increasing():
    rng = np.random.default_rng(46)
    x = np.sort(rng.uniform(0.0, 900.0, (1000, 2)), axis=1)
    y = np.sort(rng.uniform(0.0, 900.0, (1000, 2)), axis=1)
    for omega in (0.5, 1.0, 3.0):
        cop = lb.ClaytonLevyCopula(omega)
        inc = cop.cdf(x[:, 1], y[:, 1]) - cop.cdf(x[:, 1], y[:, 0]) \
            - cop.cdf(x[:, 0], y[:, 1]) + cop.cdf(x[:, 0], y[:, 0])
        assert np.all(inc >= -1e-9)


def _where_guarded_levy_cdf(omega, x, y):
    """The reference Clayton Lévy cdf: a guarded ratio and every zero/inf fixup on every value."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        if omega == 1.0:
            out = np.where(lo > 0, lo * hi / (lo + hi), 0.0)
        else:
            ratio = np.where(hi > 0, lo / hi, 0.0)
            out = lo * np.power(1.0 + np.power(ratio, omega), -1.0 / omega)
    out = np.where(lo <= 0, 0.0, out)
    out = np.where(np.isinf(lo), np.inf, out)
    out = np.where(np.isinf(hi) & np.isfinite(lo), lo, out)
    return out if out.shape else float(out)


_NANS = np.array([0x7FF8000000000000, 0x7FF8000000000123, 0xFFF8000000000000, 0x7FF0000000000001],
                 dtype=np.uint64).view(np.float64)  # quiet, with a payload, negative, signaling


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.5, 1e-3, 80.0, 1e6])
def test_levy_cdf_is_the_where_guarded_formula_bit_for_bit(omega):
    """Zeros of either sign, subnormals, huge values, inf and NaN payloads, scalar or broadcast."""
    special = np.array([0.0, -0.0, np.inf, 5e-324, 1e-310, 1e-300, 1.0, 3.5, 1e300, 1.7e308])
    xs = np.concatenate([special, _NANS, np.random.default_rng(47).exponential(100.0, 30)])
    cop = lb.ClaytonLevyCopula(omega)
    with np.errstate(over="ignore"):
        for args in [(xs[:, None], xs[None, :]), (3.0, xs), (xs, 0.0), (xs[::-1].copy(), xs),
                     (np.zeros(0), np.zeros(0))]:
            got, want = cop.cdf(*args), _where_guarded_levy_cdf(omega, *args)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for a in xs[::3]:
            for b in xs:
                got, want = cop.cdf(a, b), _where_guarded_levy_cdf(omega, a, b)
                assert isinstance(got, float) and np.float64(got).tobytes() == np.float64(want).tobytes()
    for bad in [(-1.0, 2.0), (np.array([np.nan, -1.0]), 1.0), (1.0, np.array([np.nan, -0.5]))]:
        with pytest.raises(ValidationError, match="nonnegative"):
            cop.cdf(*bad)


_LEVY_ARGS = st.one_of(st.floats(min_value=0.0), st.sampled_from([0.0, -0.0, np.inf, np.nan]))


@settings(max_examples=200, deadline=None)
@given(omega=st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1e3)),
       pairs=st.lists(st.tuples(_LEVY_ARGS, _LEVY_ARGS), min_size=1, max_size=12),
       lam=_LEVY_ARGS)
def test_levy_cdf_is_symmetric_bit_for_bit(omega, pairs, lam):
    """C(x, y) and C(y, x) are the same bits, so an exchangeable pair's risk 2 may reuse risk 1's tails."""
    x, y = np.array(pairs).T
    cop = lb.ClaytonLevyCopula(omega)
    with np.errstate(over="ignore"):
        assert cop.cdf(x, y).tobytes() == cop.cdf(y, x).tobytes()
        assert cop.cdf(x, lam).tobytes() == cop.cdf(lam, x).tobytes()
        assert np.float64(cop.cdf(x[0], y[0])).tobytes() == np.float64(cop.cdf(y[0], x[0])).tobytes()


@pytest.mark.parametrize("omega", [0.5, 2.5])
def test_levy_lattice_masses_are_those_of_the_where_guarded_formula(omega, monkeypatch):
    risk1 = lb.CompoundPoissonSpec(800.0, lb.Gamma(2.0, 500.0))
    risk2 = lb.CompoundPoissonSpec(500.0, lb.Exponential(700.0))
    market = lb.MarketSpec(risk1, risk2, lb.ClaytonLevyCopula(omega))
    got = lb.decompose(market, grid_step=40.0)
    monkeypatch.setattr(lb.ClaytonLevyCopula, "cdf",
                        lambda self, x, y: _where_guarded_levy_cdf(self.omega, x, y))
    want = lb.decompose(market, grid_step=40.0)
    for name in ("sev1_only", "sev2_only", "sev1_both", "sev2_both", "sev_sum_both"):
        assert getattr(got, name)._masses.tobytes() == getattr(want, name)._masses.tobytes(), name


# ---------------------------------------------------------------------------
# Kendall tau parameterization
# ---------------------------------------------------------------------------

def test_tau_conversion_closed_forms():
    assert tau_to_parameter("clayton", 0.5) == pytest.approx(2.0, rel=1e-14)
    assert tau_to_parameter("gumbel", 0.5) == pytest.approx(2.0, rel=1e-14)


def test_tau_independence_limit():
    assert tau_to_parameter("clayton", 1e-9) == pytest.approx(2e-9, rel=1e-6)
    assert tau_to_parameter("gumbel", 0.0) == 1.0


def test_tau_validation():
    with pytest.raises(ValidationError):
        tau_to_parameter("clayton", 1.0)
    with pytest.raises(ValidationError):
        tau_to_parameter("gumbel", -0.2)
    with pytest.raises(ValidationError):
        make_ordinary("clayton", omega=1.0, tau=0.5)
    with pytest.raises(ValidationError, match="unknown copula family 'x'"):
        make_ordinary("x", omega=1.0)
    with pytest.raises(ValidationError, match="unknown copula family 'x'"):
        make_ordinary("x", tau=0.3)
    with pytest.raises(ValidationError, match="takes no parameter"):
        make_ordinary("independence", tau=0.3)
    with pytest.raises(ValidationError, match="admits only tau = 0"):
        tau_to_parameter("independence", 0.3)
    with pytest.raises(ValidationError, match="needs omega or tau"):
        make_ordinary("clayton")
    assert frank_tau(50.0) == pytest.approx(0.92263, abs=1e-5)
    with pytest.raises(ValidationError, match="outside invertible bracket"):
        tau_to_parameter("frank", 0.95)


def test_frank_tau_round_trip():
    for tau in (0.1, 0.3, 0.5, 0.8):
        omega = tau_to_parameter("frank", tau)
        assert frank_tau(omega) == pytest.approx(tau, abs=1e-9)


def test_frank_tau_against_debye_quadrature():
    # independent evaluation of the Debye relation via dense quadrature
    omega = 4.0
    ts = np.linspace(1e-9, omega, 400_001)
    debye = trapezoid(ts / np.expm1(ts), ts) / omega
    assert frank_tau(omega) == pytest.approx(1.0 - 4.0 / omega * (1.0 - debye), abs=1e-8)


@pytest.mark.parametrize("family", ["clayton", "gumbel", "frank"])
def test_tau_recovery_from_cdf(family):
    # Kendall's tau = 4 E[C(U, V)] - 1 (Nelsen 2006, section 5.1): the
    # expectation as a sum over a 1000 x 1000 grid of the corner-mean C
    # times the rectangle mass; the grid sum is within 5e-6 of the exact tau
    g = np.linspace(0.0, 1.0, 1001)
    for tau in (0.25, 0.5):
        c = make_ordinary(family, tau=tau).cdf(g[:, None], g[None, :])
        mass = np.diff(np.diff(c, axis=0), axis=1)
        mean_c = (c[1:, 1:] + c[1:, :-1] + c[:-1, 1:] + c[:-1, :-1]) / 4.0
        assert 4.0 * np.sum(mean_c * mass) - 1.0 == pytest.approx(tau, abs=1e-4)


def test_make_ordinary_degrades_to_independence():
    assert isinstance(make_ordinary("clayton", tau=0.0), lb.IndependenceCopula)
    assert isinstance(make_ordinary("frank", omega=0.0), lb.IndependenceCopula)
    assert isinstance(make_ordinary("gumbel", omega=1.0), lb.IndependenceCopula)


_STRONG_GRID = np.array([1e-3, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999, 1.0])


def _finite_bounded_with_uniform_margins(cop, grid):
    """C on grid x grid is finite, within the Fréchet bounds, with margins C(u, 1) = u."""
    u, v = (a.ravel() for a in np.meshgrid(grid, grid))
    c = cop.cdf(u, v)
    assert np.all(np.isfinite(c))
    assert np.all(c >= np.maximum(u + v - 1.0, 0.0) - 1e-15)
    assert np.all(c <= np.minimum(u, v) + 1e-15)
    assert_allclose(cop.cdf(grid, np.ones_like(grid)), grid, rtol=0, atol=1e-15)
    assert_allclose(cop.cdf(np.ones_like(grid), grid), grid, rtol=0, atol=1e-15)
    return u, v, c


@pytest.mark.parametrize("omega", [-30.0, -3.0, 5.74, 18.2, 38.3, 50.0])
def test_frank_keeps_its_digits_near_the_upper_corner(omega):
    """Strong positive Frank dependence once lost every digit near (1, 1).

    Frank is radially symmetric, C(u, v) = u + v - 1 + C(1 - u, 1 - v)
    (Nelsen, An Introduction to Copulas, 2006), so the corner values are
    checked against values far from it.
    """
    cop = lb.FrankCopula(omega)
    u, v, c = _finite_bounded_with_uniform_margins(cop, _STRONG_GRID)
    assert_allclose(c, u + v - 1.0 + cop.cdf(1.0 - u, 1.0 - v), rtol=0, atol=1e-12)


def _mp_cdf(family, omega, u, v):
    """The Clayton or Gumbel copula at 60 digits."""
    with mpmath.workdps(60):
        u, v, w = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(omega)
        if family == "clayton":
            return float((u**-w + v**-w - 1) ** (-1 / w))
        return float(mpmath.exp(-(((-mpmath.log(u)) ** w + (-mpmath.log(v)) ** w) ** (1 / w))))


@pytest.mark.parametrize("family", ["clayton", "gumbel"])
@pytest.mark.parametrize("tau", [0.5, 0.99, 0.999, 0.9999])
def test_clayton_and_gumbel_keep_their_digits_at_strong_dependence(family, tau):
    """u^-omega (Clayton) and (-ln u)^omega (Gumbel) once over- or underflowed to C = 0 or 1."""
    cop = make_ordinary(family, tau=tau)
    grid = np.concatenate((_STRONG_GRID, [0.4, 0.6, 0.7, 0.7000001]))
    u, v, c = _finite_bounded_with_uniform_margins(cop, grid)
    inner = (u < 1.0) & (v < 1.0)
    expected = [_mp_cdf(family, cop.omega, a, b) for a, b in zip(u[inner], v[inner])]
    assert_allclose(c[inner], expected, rtol=0, atol=1e-15)
