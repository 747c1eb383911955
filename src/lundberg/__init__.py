"""Ruin probabilities and optimal premium loadings for compound Poisson surplus processes.

Each public name loads its submodule on first use (PEP 562), so a
script that only simulates never imports scipy.optimize, scipy.integrate
or scipy.fft.  ``lundberg.X`` is looked up in the submodule on every
access and never cached here, so it is always the submodule's current
binding.
"""

import importlib

__version__ = "0.1.0"

# submodule -> its __all__
_EXPORTS = {
    "copulas": ["OrdinaryCopula", "IndependenceCopula", "ClaytonCopula", "GumbelCopula",
                "FrankCopula", "ClaytonLevyCopula", "tau_to_parameter", "make_ordinary"],
    "demand": ["DemandSpec", "AcquisitionShares", "acquisition_shares", "shares_from_take_rates"],
    "distributions": ["SeverityModel", "Exponential", "Gamma", "Mixture", "Gridded",
                      "JointGridded", "IntegratedTails", "integrated_tails", "mixture",
                      "sum_distribution"],
    "errors": ["LundbergError", "ValidationError", "ConfigError", "NetProfitError",
               "InstabilityError", "AccuracyError"],
    "market": ["CompoundPoissonSpec", "MarketSpec", "Decomposition", "CompanyExposure",
               "decompose", "company_exposure"],
    "optimize": ["LoadingResult", "ruin_optimal_loading", "profit_optimal_loading",
                 "joint_expected_profit", "weighted_average_loading", "optimize_joint_ruin",
                 "optimize_joint_profit", "company_ruin_at", "sweep_single_loading",
                 "size_scaling_experiment"],
    "ruin": ["SolverConfig", "RuinCurve", "solve_survival", "solve_series",
             "independence_gap_bound"],
    "config": ["ModelConfig", "parse_config", "load_config", "config_to_dict"],
    "figures": ["solve_config", "optimize_config", "simulate_config", "reproduce_figure"],
    "presets": ["figure_config", "preset_names"],
    "simulate": ["SimConfig", "RuinEstimate", "wilson_interval", "simulate_ruin",
                 "simulate_bivariate_market"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:  # a submodule nothing has imported yet
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
