import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import lundberg as lb
from lundberg.copulas import make_ordinary
from lundberg.demand import AcquisitionShares, acquisition_shares, joint_share, shares_from_take_rates
from lundberg.errors import ValidationError


# ---------------------------------------------------------------------------
# take rate and premium rate
# ---------------------------------------------------------------------------

def test_take_rate_values(demand1):
    assert demand1.take_rate(0.0) == pytest.approx(1.0 / (1.0 + np.exp(-0.6)), rel=1e-12)
    assert demand1.take_rate(0.4) == pytest.approx(1.0 / (1.0 + np.exp(1.0)), rel=1e-12)


def test_take_rate_vanishes_for_large_loading(demand1):
    assert demand1.take_rate(300.0) == 0.0
    assert demand1.take_rate(50.0) < 1e-80


def test_premium_rate_zero_cost_zero_loading():
    d = lb.DemandSpec(beta0=-0.6, beta1=4.0, fixed_cost=0.0)
    lam, mean = 800.0, 1000.0
    assert d.premium_rate(lam, mean, 0.0) == pytest.approx(lam * d.take_rate(0.0) * mean, rel=1e-14)


def test_premium_rate_regression_value(demand1):
    # frozen from the defining expression at loading 0.435
    expected = 1.435 * 800.0 * (1.0 / (1.0 + np.exp(-0.6 + 4.0 * 0.435))) * 1000.0 - 64000.0
    got = demand1.premium_rate(800.0, 1000.0, 0.435)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(214_183.7744237468, abs=1e-6)


def test_premium_rate_negative_when_cost_dominates(demand1):
    # high loading kills demand; the fixed cost then exceeds the income
    assert demand1.premium_rate(800.0, 1000.0, 3.0) < 0.0


@settings(max_examples=200, deadline=None)
@given(
    t1=st.floats(min_value=-5.0, max_value=5.0),
    dt=st.floats(min_value=1e-6, max_value=5.0),
)
def test_take_rate_strictly_decreasing(demand1, t1, dt):
    assert demand1.take_rate(t1) > demand1.take_rate(t1 + dt)


def test_demand_validation():
    with pytest.raises(ValidationError):
        lb.DemandSpec(beta0=0.0, beta1=0.0, fixed_cost=1.0)
    with pytest.raises(ValidationError):
        lb.DemandSpec(beta0=0.0, beta1=1.0, fixed_cost=-1.0)


# ---------------------------------------------------------------------------
# acquisition shares
# ---------------------------------------------------------------------------

def test_independent_acquisition_factorizes(demands):
    d1, d2 = demands
    shares = acquisition_shares(lb.IndependenceCopula(), d1, d2, 0.3, 0.5)
    p1, p2 = float(d1.take_rate(0.3)), float(d2.take_rate(0.5))
    assert shares.both == pytest.approx(p1 * p2, rel=1e-12)
    assert shares.p1 - shares.both == pytest.approx(p1 * (1 - p2), rel=1e-12)
    assert shares.p2 - shares.both == pytest.approx(p2 * (1 - p1), rel=1e-12)


def test_clayton_near_zero_tau_matches_independence(demands):
    d1, d2 = demands
    weak = acquisition_shares(make_ordinary("clayton", tau=1e-7), d1, d2, 0.4, 0.4)
    indep = acquisition_shares(lb.IndependenceCopula(), d1, d2, 0.4, 0.4)
    assert abs(weak.both - indep.both) < 1e-6


def test_comonotone_limit_hits_frechet_bound(demands):
    d1, d2 = demands
    shares = acquisition_shares(make_ordinary("gumbel", tau=0.9999), d1, d2, 0.4, 0.4)
    p1, p2 = float(d1.take_rate(0.4)), float(d2.take_rate(0.4))
    assert shares.both == pytest.approx(min(p1, p2), abs=2e-4)


def test_share_margins_hold_for_random_draws(demands):
    rng = np.random.default_rng(11)
    d1, d2 = demands
    families = ["independence", "clayton", "gumbel", "frank"]
    for _ in range(1000):
        fam = families[rng.integers(len(families))]
        tau = 0.0 if fam == "independence" else float(rng.uniform(0.02, 0.9))
        cop = make_ordinary(fam, tau=tau if fam != "independence" else None)
        t1, t2 = rng.uniform(0.05, 1.2, size=2)
        s = acquisition_shares(cop, d1, d2, t1, t2)
        assert max(s.p1 + s.p2 - 1.0, 0.0) - 1e-9 <= s.both <= min(s.p1, s.p2) + 1e-9


def test_small_company_joint_share_asymptotics():
    """Tail-independent bid copulas shed joint clients faster than the
    marginal shares shrink; the Gumbel family keeps a positive fraction.

    The ratio both/(p1+p2) is evaluated at p1 + p2 = 1e-5: equal to q/2
    at independence, it must fall below 1e-4 for Clayton and Frank and
    stay above 1e-2 for Gumbel (tau = 0.5 each).
    """
    p = 0.5e-5
    for fam in ("clayton", "frank"):
        cop = make_ordinary(fam, tau=0.5)
        s = shares_from_take_rates(cop, p, p)
        assert s.both / (2 * p) < 1e-4, fam
    gum = shares_from_take_rates(make_ordinary("gumbel", tau=0.5), p, p)
    assert gum.both / (2 * p) > 1e-2


def test_small_company_ratio_decreases_to_zero_clayton():
    cop = make_ordinary("clayton", tau=0.5)
    ratios = []
    for p in (1e-2, 1e-3, 1e-4, 1e-5):
        s = shares_from_take_rates(cop, p, p)
        ratios.append(s.both / (2 * p))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-4


def test_share_validation():
    with pytest.raises(ValidationError):
        AcquisitionShares(p1=0.5, p2=0.2, both=0.3)  # more joint than risk 2's clients
    with pytest.raises(ValidationError):
        AcquisitionShares(p1=0.8, p2=0.8, both=0.5)  # below the Frechet lower bound 0.6
    mono = AcquisitionShares.monopoly()
    assert mono.both == 1.0 and mono.p1 == 1.0


def _share_points():
    """Shares in [0, 1], near its ends, and just outside them."""
    edges = st.sampled_from([0.0, 1.0, -1e-12, 1e-12, 1.0 - 1e-12, 1.0 + 1e-12, -1e-9, 1.0 + 1e-9])
    return st.one_of(edges, st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(p1=_share_points(), p2=_share_points(), edge=st.sampled_from(["lower", "upper", "free"]),
       offset=st.sampled_from([0.0, -1e-9, -1e-12, 1e-12, 1e-9, -2e-9, 2e-9]), free=_share_points())
def test_shares_are_accepted_exactly_on_the_three_number_rule(p1, p2, edge, offset, free):
    # the joint share sits on a Frechet bound, 1e-12 or 1e-9 from it, or anywhere in [0, 1]
    lower, upper = max(p1 + p2 - 1.0, 0.0), min(p1, p2)
    both = {"lower": lower + offset, "upper": upper + offset, "free": free}[edge]
    valid = (all(-1e-12 <= v <= 1.0 + 1e-12 for v in (p1, p2, both, p1 - both, p2 - both))
             and lower - 1e-9 <= both <= upper + 1e-9)
    if valid:
        shares = AcquisitionShares(p1=p1, p2=p2, both=both)
        assert (shares.p1, shares.p2, shares.both) == (p1, p2, both)
    else:
        with pytest.raises(ValidationError):
            AcquisitionShares(p1=p1, p2=p2, both=both)


# omega is drawn from [0.01, 50]; Gumbel shifts it above 1, Frank folds (0, 10) onto negatives
_COPULAS = {
    "independence": lambda w: lb.IndependenceCopula(),
    "clayton": lambda w: lb.ClaytonCopula(w),
    "gumbel": lambda w: lb.GumbelCopula(1.0 + w),
    "frank": lambda w: lb.FrankCopula(w - 10.0 if w < 10.0 else w),
}


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(sorted(_COPULAS)),
    omega=st.floats(min_value=0.01, max_value=50.0),
    rates=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=40),
)
def test_joint_share_is_the_scalar_share_elementwise(family, omega, rates):
    """The array form that sweeps use gives the scalar form's joint share bit for bit."""
    copula = _COPULAS[family](omega)
    p1, p2 = (np.array(col) for col in zip(*rates))
    scalar = [shares_from_take_rates(copula, a, b).both for a, b in rates]
    assert np.array_equal(joint_share(copula, p1, p2), scalar)
