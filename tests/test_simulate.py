import hashlib
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import lundberg as lb
from lundberg.demand import AcquisitionShares
from lundberg.errors import ValidationError
from lundberg.market import _ordered_interp
from lundberg import _pool
from lundberg.simulate import _BLOCK, _company_draw, wilson_interval
from test_distributions import _QueueRng


# ---------------------------------------------------------------------------
# estimator mechanics
# ---------------------------------------------------------------------------

def test_wilson_interval_contains_point_estimate():
    for k, n in ((0, 50), (13, 50), (50, 50), (499, 1000)):
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_interval_known_value():
    # hand evaluation of the score interval at z for 99% coverage
    from scipy.stats import norm

    z = norm.ppf(0.995)
    k, n = 30, 100
    phat = 0.3
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * 0.7 / n + z * z / (4 * n * n)) / denom
    lo, hi = wilson_interval(k, n)
    assert lo == pytest.approx(center - half, rel=1e-12)
    assert hi == pytest.approx(center + half, rel=1e-12)


def test_wilson_validation():
    with pytest.raises(ValidationError):
        wilson_interval(5, 2)


def test_identical_seeds_reproduce_bitwise(gamma_severity):
    cfg = lb.SimConfig(paths=20_000, seed=9)
    a = lb.simulate_ruin(200.0, gamma_severity, 230_000.0, 1500.0, cfg)
    b = lb.simulate_ruin(200.0, gamma_severity, 230_000.0, 1500.0, cfg)
    assert a.probability == b.probability
    assert a.ruined == b.ruined
    ta, tb = a.diagnostics["ruin_times"], b.diagnostics["ruin_times"]
    assert np.array_equal(ta, tb, equal_nan=True)


def test_different_seeds_differ(gamma_severity):
    a = lb.simulate_ruin(200.0, gamma_severity, 230_000.0, 1500.0, lb.SimConfig(paths=20_000, seed=1))
    b = lb.simulate_ruin(200.0, gamma_severity, 230_000.0, 1500.0, lb.SimConfig(paths=20_000, seed=2))
    assert a.probability != b.probability


def test_no_claims_never_ruins(gamma_severity):
    est = lb.simulate_ruin(0.0, gamma_severity, 100.0, 10.0, lb.SimConfig(paths=100, seed=0))
    assert est.probability == 0.0


def test_nonpositive_premium_ruins_almost_surely(gamma_severity):
    est = lb.simulate_ruin(
        200.0, gamma_severity, 0.0, 2000.0, lb.SimConfig(paths=2000, seed=3, horizon=5.0)
    )
    assert est.probability > 0.99


# a surplus 10 - 100t would reach 0 between claims, which the claim-epoch
# check cannot see; a negative reserve starts below the ruin level
_REJECTED = pytest.mark.parametrize("premium,reserve,what", [(-100.0, 10.0, "premium rate"),
                                                             (100.0, -10.0, "reserve")])


@pytest.mark.parametrize("intensity", [0.0, 1.0])
@_REJECTED
def test_negative_premium_or_reserve_is_rejected_by_the_single_risk_simulator(
        intensity, premium, reserve, what):
    with pytest.raises(ValidationError, match=what):
        lb.simulate_ruin(intensity, lb.Exponential(1.0), premium, reserve,
                         lb.SimConfig(paths=10, horizon=0.5))


@pytest.mark.parametrize("p", [0.0, 0.4])
@_REJECTED
def test_negative_premium_or_reserve_is_rejected_by_the_bivariate_simulator(
        dep_market, decomposition, p, premium, reserve, what):
    shares = AcquisitionShares(p1=p, p2=p, both=0.0)
    with pytest.raises(ValidationError, match=what):
        lb.simulate_bivariate_market(dep_market, shares, premium, reserve, lb.SimConfig(paths=10),
                                     decomposition=decomposition)


def test_horizon_doubling_is_negligible(demand1, gamma_severity):
    theta = 0.435
    lam = 800.0 * float(demand1.take_rate(theta))
    c = float(demand1.premium_rate(800.0, 1000.0, theta))
    base = lb.simulate_ruin(lam, gamma_severity, c, 5000.0, lb.SimConfig(paths=30_000, seed=5))
    doubled = lb.simulate_ruin(
        lam, gamma_severity, c, 5000.0,
        lb.SimConfig(paths=30_000, seed=5, horizon=2.0 * base.horizon),
    )
    half_width = (base.ci_high - base.ci_low) / 2.0
    assert abs(doubled.probability - base.probability) < 0.5 * half_width


def test_simulated_severity_mean_matches_model(gamma_severity, rng):
    mix = lb.Mixture([0.4, 0.6], [lb.Exponential(400.0), gamma_severity])
    draws = mix.sample(rng, 200_000)
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - mix.mean) < 3.0 * se


# ---------------------------------------------------------------------------
# agreement with the grid solver
# ---------------------------------------------------------------------------

def test_single_risk_estimate_brackets_solver(demand1, gamma_severity):
    theta = 0.435
    lam = 800.0 * float(demand1.take_rate(theta))
    c = float(demand1.premium_rate(800.0, 1000.0, theta))
    est = lb.simulate_ruin(lam, gamma_severity, c, 5000.0, lb.SimConfig(paths=40_000, seed=6))
    curve = lb.solve_survival(lam, gamma_severity, c, lb.SolverConfig(grid_step=2.0, x_max=5000.0))
    assert est.ci_low <= curve.ruin[-1] <= est.ci_high


# ---------------------------------------------------------------------------
# decomposed market simulation
# ---------------------------------------------------------------------------

def test_simulate_ruin_builds_the_severity_sampler_once(monkeypatch):
    """A gridded part's running sum is taken once per run, not once per draw of a block."""
    built, draws, sampler = [], [], lb.Gridded.sampler

    def counted(self):
        built.append(self)
        sample = sampler(self)
        return lambda rng, size: draws.append(size) or sample(rng, size)

    monkeypatch.setattr(lb.Gridded, "sampler", counted)
    model = lb.Gridded([50.0, 120.0, 400.0, 900.0], [0.1, 0.4, 0.3, 0.2])
    mix = lb.Mixture([0.5, 0.5], [model, lb.Exponential(300.0)])
    est = lb.simulate_ruin(0.5, mix, 200.0, 2000.0, lb.SimConfig(paths=500, seed=3))
    assert built == [model] and len(draws) > 1, len(draws)
    assert 0 < est.ruined < est.paths


def test_company_exposure_simulate_shortcut(dep_market, decomposition, demands, shares_at_04):
    exposure = lb.company_exposure(
        dep_market, shares_at_04, (0.4, 0.4), demands, (2000.0,), decomposition=decomposition,
    )
    est = lb.simulate_ruin(exposure.intensity, exposure.severity, exposure.premium_rate,
                           exposure.reserve, lb.SimConfig(paths=5000, seed=8))
    assert 0.5 < est.probability < 1.0


def test_bivariate_reduces_to_aggregate_when_independent(indep_market, demands, shares_at_04):
    exposure = lb.company_exposure(
        indep_market, shares_at_04, (0.4, 0.4), demands, (2000.0,),
        decomposition=lb.decompose(indep_market, 2.0),
    )
    cfg = lb.SimConfig(paths=30_000, seed=10)
    via_streams = lb.simulate_bivariate_market(
        indep_market, shares_at_04, exposure.premium_rate, 2000.0, cfg,
    )
    via_mixture = lb.simulate_ruin(
        exposure.intensity, exposure.severity, exposure.premium_rate, 2000.0, cfg,
    )
    t1 = via_streams.diagnostics["ruin_times"]
    t2 = via_mixture.diagnostics["ruin_times"]
    stat = ks_2samp(t1[~np.isnan(t1)], t2[~np.isnan(t2)])
    assert stat.pvalue > 0.01


def test_bivariate_no_joint_clients_matches_marginal_model(dep_market, decomposition, demands):
    shares = AcquisitionShares(p1=0.3, p2=0.3, both=0.0)
    exposure = lb.company_exposure(
        dep_market, shares, (0.4, 0.4), demands, (2000.0,), decomposition=decomposition,
    )
    cfg = lb.SimConfig(paths=30_000, seed=11)
    via_streams = lb.simulate_bivariate_market(
        dep_market, shares, exposure.premium_rate, 2000.0, cfg,
        decomposition=decomposition,
    )
    # oracle: the exact marginal-only company law (no joint clients)
    hat = lb.Mixture([0.5, 0.5], [dep_market.risk1.severity, dep_market.risk2.severity])
    via_hat = lb.simulate_ruin(
        exposure.intensity_indep, hat, exposure.premium_rate, 2000.0, cfg,
    )
    t1 = via_streams.diagnostics["ruin_times"]
    t2 = via_hat.diagnostics["ruin_times"]
    stat = ks_2samp(t1[~np.isnan(t1)], t2[~np.isnan(t2)])
    assert stat.pvalue > 0.01


def test_bivariate_zero_rates_yield_zero(dep_market, decomposition):
    shares = AcquisitionShares(p1=0.0, p2=0.0, both=0.0)
    est = lb.simulate_bivariate_market(
        dep_market, shares, 1000.0, 100.0, lb.SimConfig(paths=50, seed=0),
        decomposition=decomposition,
    )
    assert est.probability == 0.0


# ---------------------------------------------------------------------------
# the random stream of the bivariate simulator
# ---------------------------------------------------------------------------

# (ruined, SHA-256 of the ruin_times bytes) of the dependent company at the
# 0.4/0.4 shares, reserve 2000, 9000 paths; recorded before the samplers
# looked their tables up in sorted order, which must not move a draw.
_GOLDEN = {
    0: (7008, "e80b3bd87a952ab064bf9b21198fda3a7569fbafb648bcb272c01a4111e25edd"),
    3: (7038, "ec2a1d3f60c8e213a7461bc6b8c8acc0a15dff9af6cfeaa2416c83f7b53dee37"),
}


def _company_premium(demands):
    return float(sum(d.premium_rate(800.0, 1000.0, 0.4) for d in demands))


@pytest.mark.parametrize("seed", sorted(_GOLDEN))
def test_bivariate_stream_is_pinned(dep_market, demands, shares_at_04, seed):
    est = lb.simulate_bivariate_market(
        dep_market, shares_at_04, _company_premium(demands), 2000.0,
        lb.SimConfig(paths=9000, seed=seed),
    )
    digest = hashlib.sha256(est.diagnostics["ruin_times"].tobytes()).hexdigest()
    assert (est.ruined, digest) == _GOLDEN[seed]


def test_bivariate_own_decomposition_matches_gridded(dep_market, decomposition, demands,
                                                     shares_at_04):
    cfg = lb.SimConfig(paths=3000, seed=2)
    args = (dep_market, shares_at_04, _company_premium(demands), 2000.0, cfg)
    own = lb.simulate_bivariate_market(*args)
    given_ = lb.simulate_bivariate_market(*args, decomposition=decomposition)
    assert own.ruined == given_.ruined
    assert np.array_equal(own.diagnostics["ruin_times"], given_.diagnostics["ruin_times"],
                          equal_nan=True)
    samplers_only = lb.Decomposition(dep_market, grid_step=None)
    assert samplers_only.joint_both is None and samplers_only.sev_sum_both is None


# ---------------------------------------------------------------------------
# blocks in worker processes
# ---------------------------------------------------------------------------

_UNEVEN_PATHS = 2 * _BLOCK + 17  # three blocks, the last one short


def _fingerprint(est):
    return est.ruined, hashlib.sha256(est.diagnostics["ruin_times"].tobytes()).hexdigest()


@pytest.fixture
def simulators(gamma_severity, dep_market, decomposition, shares_at_04, demands):
    def single(cfg):
        # a short horizon bounds the time of each run, which the tests repeat per worker count
        cfg = lb.SimConfig(cfg.paths, 0.5, cfg.seed)
        return lb.simulate_ruin(200.0, gamma_severity, 230_000.0, 1500.0, cfg)

    def company(cfg):
        return lb.simulate_bivariate_market(dep_market, shares_at_04, _company_premium(demands),
                                            2000.0, cfg, decomposition=decomposition)

    return {"single": single, "company": company}


@pytest.mark.parametrize("which", ["single", "company"])
def test_result_does_not_depend_on_the_worker_count(monkeypatch, simulators, which):
    run = simulators[which]
    cfg = lb.SimConfig(paths=_UNEVEN_PATHS, seed=5)
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_pool, "_worker_count", lambda jobs, w=workers: min(w, jobs))
        results.append(_fingerprint(run(cfg)))
    assert results[0][0] > 0
    assert results[1] == results[0] and results[2] == results[0]


def test_sampler_tables_are_built_before_the_workers_fork(monkeypatch, dep_market, shares_at_04,
                                                         demands):
    # tables built lazily inside the workers would be lost with them
    monkeypatch.setattr(_pool, "_worker_count", lambda jobs: min(2, jobs))
    own = lb.Decomposition(dep_market, grid_step=None)
    lb.simulate_bivariate_market(dep_market, shares_at_04, _company_premium(demands), 2000.0,
                                 lb.SimConfig(paths=2 * _BLOCK, horizon=1e-3), decomposition=own)
    assert own._tables is not None


class _FailingSeverity(lb.Exponential):
    """Raises from sample(), naming the process it ran in."""

    def sample(self, rng, size):
        raise ValidationError(f"sample failed in process {os.getpid()}")


def test_worker_error_surfaces_in_the_caller(monkeypatch):
    monkeypatch.setattr(_pool, "_worker_count", lambda jobs: min(2, jobs))
    with pytest.raises(ValidationError, match="sample failed in process") as info:
        lb.simulate_ruin(1.0, _FailingSeverity(1.0), 2.0, 10.0, lb.SimConfig(paths=2 * _BLOCK))
    assert f"process {os.getpid()}" not in str(info.value)


def test_call_from_a_daemonic_process_runs_serially(monkeypatch, simulators):
    monkeypatch.setattr(_pool, "_worker_count", lambda jobs: min(2, jobs))
    run = simulators["company"]
    cfg = lb.SimConfig(paths=_UNEVEN_PATHS, seed=7)
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)

    def in_daemon():
        try:
            send.send(_fingerprint(run(cfg)))
        except BaseException as exc:  # report, rather than leave the parent waiting
            send.send(repr(exc))
            raise

    child = context.Process(target=in_daemon, daemon=True)
    child.start()
    assert receive.poll(300), "the daemonic process sent no result"
    got = receive.recv()
    child.join(timeout=60)
    assert not child.is_alive()
    monkeypatch.setattr(_pool, "_worker_count", lambda jobs: 1)
    assert got == _fingerprint(run(cfg))


def stream_rates(decomposition, shares):
    """The bivariate simulator's ``diagnostics["stream_rates"]``, read off one short path."""
    est = lb.simulate_bivariate_market(decomposition.market, shares, 0.0, 0.0,
                                       lb.SimConfig(paths=1, horizon=1e-9), decomposition)
    return np.array(est.diagnostics["stream_rates"])


def test_top_uniform_without_joint_clients_stays_one_sided(decomposition):
    # no joint clients: the simultaneous stream has rate 0, and at these
    # shares the two one-sided probabilities sum to 1 - 2**-52, below the
    # largest uniform 1 - 2**-53
    shares = AcquisitionShares(p1=0.271, p2=0.138, both=0.0)
    rates = stream_rates(decomposition, shares)
    assert rates[2] == 0.0
    probs = rates / rates.sum()
    assert probs[0] + probs[1] == 1.0 - 2.0**-52
    _, _, draw = _company_draw(decomposition, shares)
    _, sizes = draw(_QueueRng(0.5, 1.0 - 2.0**-53, 0.3, 0.6), (1, 2))
    # risk 2's one-sided draw: 0.3 picks its exclusive or its simultaneous claims, 0.6 draws them
    exclusive = shares.p2 * decomposition.lambda2_only / rates[1]
    leaf = decomposition.sample_only2 if 0.3 < exclusive else decomposition.sample_both2
    assert np.array_equal(sizes, leaf(_QueueRng(0.6), 2).reshape(1, 2))


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(["u1", "both1", "only2"]),
    size=st.sampled_from([0, 1, 2, 3, 255, 4096, 70_000]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    nodes=st.integers(min_value=0, max_value=16),
)
def test_ordered_lookup_matches_plain_interp(decomposition, key, size, seed, nodes):
    tables = decomposition._inverse_tables()
    xp, fp = tables[key], tables["xs"]
    rng = np.random.default_rng(seed)
    x = rng.random(size) * xp[-1]
    # exact uniforms at 0, at table nodes and at the largest double below 1
    specials = np.concatenate(([0.0, 1.0 - 2.0**-53], xp[rng.integers(0, xp.size, nodes)]))
    x[: min(size, specials.size)] = specials[:size]
    rng.shuffle(x)
    assert np.array_equal(_ordered_interp(x, xp, fp), np.interp(x, xp, fp))
