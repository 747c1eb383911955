import inspect
import math
import pickle

import pytest

import lundberg as lb
from lundberg import errors

# one instance per class, with every attribute set to a value that is not its default
_INSTANCES = [
    errors.LundbergError("generic failure"),
    errors.ValidationError("reserve must be nonnegative, got -1"),
    errors.ConfigError("must be positive", field="market.risk1.intensity"),
    errors.ConfigError("unknown figure"),
    errors.NetProfitError(-1.5),
    errors.InstabilityError("node 12 outside [0, 1]"),
    errors.AccuracyError("quadrature did not converge"),
]


def test_every_error_class_is_covered():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.LundbergError)}
    assert classes == {type(error) for error in _INSTANCES}


@pytest.mark.parametrize("error", _INSTANCES, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(error):
    # errors raised in a worker process reach the caller pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


_NAN, _INF = math.nan, math.inf
_SEV = lb.Gamma(2.0, 500.0)
_DEMANDS = (lb.DemandSpec(-0.6, 4.0, 64_000.0), lb.DemandSpec(-0.6, 4.5, 64_000.0))
_RISK = lb.CompoundPoissonSpec(800.0, _SEV)
_MARKET = lb.MarketSpec(_RISK, _RISK)
_COUPLED = lb.MarketSpec(_RISK, _RISK, lb.ClaytonLevyCopula(1.0))


def _simulate(intensity=1200.0, premium=1200.0 * 1.2 * 1000.0, reserve=100.0):
    return lb.simulate_ruin(intensity, _SEV, premium, reserve, lb.SimConfig(paths=100))


def _solve(intensity, premium):
    return lb.solve_survival(intensity, _SEV, premium, lb.SolverConfig(grid_step=50.0, x_max=1000.0))


def _joint_cells(cell):
    """A 2 x 2 joint lattice whose last cell is ``cell``."""
    masses = [[0.25, 0.25], [0.25, cell]]
    return lb.JointGridded(1.0, 2, lambda a, b: iter(masses[a:b]))


def _joint_ruin(box):
    return lb.optimize_joint_ruin(_MARKET, _DEMANDS, lb.IndependenceCopula(), 1000.0, grid_step=25.0,
                                  box=box, decomposition=lb.decompose(_MARKET, 25.0))


# NaN, infinite, out-of-range or fractional inputs, each with the quantity its
# ValidationError names or the NetProfitError it raises
_PROBES = {
    "simulate nan intensity": (lambda: _simulate(intensity=_NAN), "claim intensity"),
    "simulate inf intensity": (lambda: _simulate(intensity=_INF), "claim intensity"),
    "simulate nan reserve": (lambda: _simulate(reserve=_NAN), "reserve"),
    "simulate inf reserve": (lambda: _simulate(reserve=_INF), "reserve"),
    "simulate inf premium": (lambda: _simulate(premium=_INF), "premium rate"),
    "solve nan intensity": (lambda: _solve(_NAN, 1e6), "claim intensity"),
    "solve nan premium": (lambda: _solve(800.0, _NAN), errors.NetProfitError),
    "solve negative premium without claims": (lambda: _solve(0.0, -5.0), errors.NetProfitError),
    "risk nan intensity": (lambda: lb.CompoundPoissonSpec(_NAN, _SEV), "claim intensity"),
    "demand nan fixed cost": (lambda: lb.DemandSpec(-0.6, 4.0, fixed_cost=_NAN), "fixed cost"),
    "demand nan intercept": (lambda: lb.DemandSpec(_NAN, 4.0), "demand intercept beta0"),
    "gap bound nan joint share": (lambda: lb.independence_gap_bound(_NAN, 400.0, 100.0, 1e5, 10.0),
                                  "joint share"),
    "gap bound nan reserve": (lambda: lb.independence_gap_bound(0.1, 400.0, 100.0, 1e5, [10.0, _NAN]),
                              "reserve"),
    "weighted average nan take rate": (lambda: lb.weighted_average_loading(0.4, 0.3, _NAN, 0.5),
                                       "reference take rate"),
    "exponential inf mean": (lambda: lb.Exponential(_INF), "exponential mean"),
    "gamma inf scale": (lambda: lb.Gamma(2.0, _INF), "gamma scale"),
    "joint ruin reversed box": (lambda: _joint_ruin((0.6, 0.2)), "loading box width"),
    "joint ruin nan box": (lambda: _joint_ruin((_NAN, 0.6)), "loading box width"),
    "joint profit reversed box": (
        lambda: lb.optimize_joint_profit(_DEMANDS, (800.0, 800.0), (1000.0, 1000.0), mode="common",
                                         box=(0.6, 0.2)), "loading box width"),
    "ruin loading nan intensity": (lambda: lb.ruin_optimal_loading(_DEMANDS[0], _NAN, 1000.0),
                                   "claim intensity"),
    "ruin loading inf intensity": (lambda: lb.ruin_optimal_loading(_DEMANDS[0], _INF, 1000.0),
                                   "claim intensity"),
    "ruin loading nan mean severity": (lambda: lb.ruin_optimal_loading(_DEMANDS[0], 800.0, _NAN),
                                       "mean severity"),
    "profit loading nan intensity": (lambda: lb.profit_optimal_loading(_DEMANDS[0], _NAN, 1000.0),
                                     "claim intensity"),
    "joint profit nan intensity": (
        lambda: lb.optimize_joint_profit(_DEMANDS, (_NAN, 800.0), (1000.0, 1000.0), mode="common"),
        "claim intensity"),
    "wilson confidence above one": (lambda: lb.wilson_interval(5, 10, confidence=1.5), "confidence"),
    "wilson nan confidence": (lambda: lb.wilson_interval(5, 10, confidence=_NAN), "confidence"),
    "size scaling nan x0": (
        lambda: lb.size_scaling_experiment(lb.IndependenceCopula(), _NAN, 0.2, [0.1],
                                           decomposition=lb.decompose(_MARKET, 25.0)), "x0"),
    "size scaling no nodes per solve": (
        lambda: lb.size_scaling_experiment(lb.IndependenceCopula(), 1.0, 0.2, [0.1], 0,
                                           decomposition=lb.decompose(_MARKET, 25.0)), "nodes_per_solve"),
    "size scaling fractional nodes per solve": (
        lambda: lb.size_scaling_experiment(lb.IndependenceCopula(), 1.0, 0.2, [0.1], 2.5,
                                           decomposition=lb.decompose(_MARKET, 25.0)), "nodes_per_solve"),
    "decompose nan joint tail mass": (lambda: lb.decompose(_COUPLED, 25.0, joint_tail_mass=_NAN),
                                      "joint tail mass"),
    "decompose zero joint tail mass": (lambda: lb.decompose(_COUPLED, 25.0, joint_tail_mass=0.0),
                                       "joint tail mass"),
    "decompose joint tail mass above one": (lambda: lb.decompose(_COUPLED, 25.0, joint_tail_mass=1.5),
                                            "joint tail mass"),
    "fractional paths": (lambda: lb.SimConfig(paths=2.5), "paths"),
    "boolean paths": (lambda: lb.SimConfig(paths=True), "paths"),
    "fractional seed": (lambda: lb.SimConfig(seed=1.5), "seed"),
    "fractional series terms": (lambda: lb.SolverConfig(1.0, 10.0, series_terms=2.5), "series_terms"),
    "gridded nan mass": (lambda: lb.Gridded([1.0, 2.0], [0.5, _NAN]), "gridded masses"),
    "gridded nan atom": (lambda: lb.Gridded([1.0, _NAN], [0.5, 0.5]), "gridded atoms"),
    "gridded inf atom": (lambda: lb.Gridded([1.0, _INF], [0.5, 0.5]), "gridded atoms"),
    "mixture nan weight": (lambda: lb.Mixture([_NAN, 1.0], [_SEV, _SEV]), "mixture weights"),
    "mixture helper nan weight": (lambda: lb.mixture([_NAN, 1.0], [_SEV, _SEV]), "mixture weights"),
    "joint lattice nan cell": (lambda: list(_joint_cells(_NAN).rows(0, 2)), "joint cell masses"),
    "sum distribution nan cell": (lambda: lb.sum_distribution(_joint_cells(_NAN)), "joint cell masses"),
    "frank nan parameter": (lambda: lb.FrankCopula(_NAN), "frank parameter"),
    "frank inf parameter": (lambda: lb.FrankCopula(_INF), "frank parameter"),
    "clayton inf parameter": (lambda: lb.ClaytonCopula(_INF), "clayton parameter"),
    "gumbel inf parameter": (lambda: lb.GumbelCopula(_INF), "gumbel parameter"),
    "clayton levy inf parameter": (lambda: lb.ClaytonLevyCopula(_INF), "clayton Levy parameter"),
    "ruin curve beyond the grid": (lambda: _solve(800.0, 1e6).ruin_at(5000.0), "reserve"),
    "ruin curve negative reserve": (lambda: _solve(800.0, 1e6).ruin_at(-50.0), "reserve"),
    "ruin curve nan reserve": (lambda: _solve(800.0, 1e6).ruin_at(_NAN), "reserve"),
}


@pytest.mark.parametrize("call, expected", _PROBES.values(), ids=_PROBES.keys())
def test_api_rejects_inputs_that_are_not_finite_in_range_or_whole(call, expected):
    if isinstance(expected, str):  # a ValidationError that names the quantity
        with pytest.raises(errors.ValidationError, match=f"^{expected} must be"):
            call()
    else:
        with pytest.raises(expected):
            call()
