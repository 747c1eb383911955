"""Ruin probabilities and optimal premium loadings for compound Poisson surplus processes."""

__version__ = "0.1.0"

from .copulas import (
    ClaytonCopula,
    ClaytonLevyCopula,
    FrankCopula,
    GumbelCopula,
    IndependenceCopula,
    OrdinaryCopula,
    make_ordinary,
    tau_to_parameter,
)
from .demand import AcquisitionShares, DemandSpec, acquisition_shares, shares_from_take_rates
from .distributions import (
    Exponential,
    Gamma,
    Gridded,
    IntegratedTails,
    JointGridded,
    Mixture,
    SeverityModel,
    integrated_tails,
    mixture,
    sum_distribution,
)
from .errors import (
    AccuracyError,
    ConfigError,
    InstabilityError,
    LundbergError,
    NetProfitError,
    ValidationError,
)
from .market import (
    CompanyExposure,
    CompoundPoissonSpec,
    Decomposition,
    MarketSpec,
    company_exposure,
    decompose,
)
from .optimize import (
    LoadingResult,
    company_ruin_at,
    joint_expected_profit,
    optimize_joint_profit,
    optimize_joint_ruin,
    profit_optimal_loading,
    ruin_optimal_loading,
    size_scaling_experiment,
    sweep_single_loading,
    weighted_average_loading,
)
from .ruin import (
    RuinCurve,
    SolverConfig,
    independence_gap_bound,
    solve_series,
    solve_survival,
)
from .config import ModelConfig, config_to_dict, load_config, parse_config
from .presets import figure_config, preset_names
from .simulate import (
    RuinEstimate,
    SimConfig,
    simulate_bivariate_market,
    simulate_ruin,
    wilson_interval,
)
