import numpy as np
import pytest
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


def test_uniform_margins():
    us = np.linspace(0.0, 1.0, 21)
    for cop in ordinary_families():
        assert_allclose(cop.cdf(us, np.ones_like(us)), us, atol=1e-12)
        assert_allclose(cop.cdf(np.ones_like(us), us), us, atol=1e-12)
        assert_allclose(cop.cdf(us, np.zeros_like(us)), 0.0, atol=1e-12)


def test_clayton_closed_form_value():
    # (0.5^-2 + 0.5^-2 - 1)^(-1/2) = 7^(-1/2)
    assert lb.ClaytonCopula(2.0).cdf(0.5, 0.5) == pytest.approx(7.0 ** -0.5, rel=1e-14)


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


@pytest.mark.parametrize("omega", [-30.0, -3.0, 5.74, 18.2, 38.3, 50.0])
def test_frank_keeps_its_digits_near_the_upper_corner(omega):
    """Strong positive Frank dependence once lost every digit near (1, 1).

    Frank is radially symmetric, C(u, v) = u + v - 1 + C(1 - u, 1 - v)
    (Nelsen, An Introduction to Copulas, 2006), so the corner values are
    checked against values far from it.
    """
    grid = np.array([1e-3, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999, 1.0])
    u, v = (a.ravel() for a in np.meshgrid(grid, grid))
    cop = lb.FrankCopula(omega)
    c = cop.cdf(u, v)
    assert np.all(np.isfinite(c))
    assert np.all(c >= np.maximum(u + v - 1.0, 0.0) - 1e-15)
    assert np.all(c <= np.minimum(u, v) + 1e-15)
    assert_allclose(cop.cdf(grid, np.ones_like(grid)), grid, rtol=0, atol=1e-15)
    assert_allclose(cop.cdf(np.ones_like(grid), grid), grid, rtol=0, atol=1e-15)
    assert_allclose(c, u + v - 1.0 + cop.cdf(1.0 - u, 1.0 - v), rtol=0, atol=1e-12)
