import concurrent.futures
import json

import numpy as np
import pytest

import lundberg as lb
from lundberg import _pool
from lundberg.presets import figure_config

# Reference market: two gamma(2, 500) risks at intensity 800, logit demand
# with slopes 4.0 / 4.5, fixed cost 64000 per risk, Clayton-coupled claims.

GAMMA_SHAPE = 2.0
GAMMA_SCALE = 500.0
MEAN_CLAIM = GAMMA_SHAPE * GAMMA_SCALE
INTENSITY = 800.0
FIXED_COST = 64_000.0


@pytest.fixture(scope="session")
def gamma_severity():
    return lb.Gamma(GAMMA_SHAPE, GAMMA_SCALE)


@pytest.fixture(scope="session")
def demand1():
    return lb.DemandSpec(beta0=-0.6, beta1=4.0, fixed_cost=FIXED_COST)


@pytest.fixture(scope="session")
def demand2():
    return lb.DemandSpec(beta0=-0.6, beta1=4.5, fixed_cost=FIXED_COST)


@pytest.fixture(scope="session")
def demands(demand1, demand2):
    return (demand1, demand2)


@pytest.fixture(scope="session")
def dep_market(gamma_severity):
    risk = lb.CompoundPoissonSpec(INTENSITY, gamma_severity)
    return lb.MarketSpec(risk, risk, lb.ClaytonLevyCopula(1.0))


@pytest.fixture(scope="session")
def indep_market(gamma_severity):
    risk = lb.CompoundPoissonSpec(INTENSITY, gamma_severity)
    return lb.MarketSpec(risk, risk, None)


@pytest.fixture(scope="session")
def decomposition(dep_market):
    """Reference decomposition on the default uniform 2.0 grid."""
    return lb.decompose(dep_market, grid_step=2.0)


@pytest.fixture(scope="session")
def fine_decomposition(dep_market):
    """Accuracy-tuned decomposition for solver-vs-simulation comparisons."""
    return lb.decompose(dep_market, grid_step=0.0625, joint_step=0.5, joint_tail_mass=1e-8)


@pytest.fixture(scope="session")
def shares_at_04(demands):
    return lb.acquisition_shares(lb.IndependenceCopula(), demands[0], demands[1], 0.4, 0.4)


def pure_premium(intensity, severity):
    return intensity * severity.mean


# small single-risk and two-risk configs of the presets, written as JSON files
@pytest.fixture()
def fig1_config(tmp_path):
    cfg = figure_config("fig1")
    cfg["solver"]["x_max"] = 4000.0
    cfg["reserves"] = [100.0, 2000.0]
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def two_risk_config(tmp_path):
    cfg = figure_config("fig3")
    cfg["solver"]["x_max"] = 3000.0
    cfg["reserves"] = [3000.0]
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def pool_modes(monkeypatch):
    """Run a call with 1, 2 and 3 forked workers, then below the work floor.

    The worker runs clear a zero floor; the last run keeps the real floor
    with two workers allowed and a pool constructor that raises, so it
    passes only if the call starts no pool.  Returns the four results.
    """
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    def no_pool(*args, **kwargs):
        raise AssertionError("a call below the work floor started a pool")

    def run(call):
        floor = _pool._MIN_WORK
        results = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(_pool, "_MIN_WORK", 0)
        for workers in (1, 2, 3):
            monkeypatch.setattr(_pool, "_worker_count", lambda jobs, w=workers: min(w, jobs))
            results.append(call())
            assert bool(pools) == (workers > 1), "the pool ran when it should not, or not at all"
            pools.clear()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(_pool, "_MIN_WORK", floor)
        results.append(call())
        return results

    return run
