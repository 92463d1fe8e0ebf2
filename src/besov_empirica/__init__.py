"""Dyadic second-difference analysis of empirical processes and Brownian
paths, with Monte Carlo verification against an exact closed-form oracle."""

from .besov import (
    BesovParams,
    LevelProfile,
    besov_norm,
    level_statistic,
    little_o_profile,
    modulus_of_continuity,
    p_monotonicity_check,
)
from .dyadic import (
    CoefficientTriangle,
    DyadicPathValues,
    dyadic_grid,
    extract_coefficients,
    reconstruct_path,
    scale_triangle,
)
from .empirical import (
    ContinuousEcdf,
    continuous_ecdf,
    continuous_ecdf_eval,
    ecdf_eval,
    empirical_coefficients,
    empirical_process_eval,
    sup_distance,
)
from .errors import (
    AggregationError,
    BesovEmpiricaError,
    ParameterError,
    TiesError,
)
from .gaussian import GaussianPath, brownian_bridge, brownian_motion
from .montecarlo import (
    ExperimentConfig,
    Report,
    aggregate,
    run_concentration_experiment,
    run_moment_experiment,
    run_roynette_experiment,
    run_sandwich_experiment,
)
from .oracle import OracleMoments, enumeration_oracle
from .sampling import (
    EmpiricalSample,
    SeedSpec,
    make_generator,
    order_statistics,
    sample_gaussian,
    sample_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationError",
    "BesovEmpiricaError",
    "BesovParams",
    "CoefficientTriangle",
    "ContinuousEcdf",
    "DyadicPathValues",
    "EmpiricalSample",
    "ExperimentConfig",
    "GaussianPath",
    "LevelProfile",
    "OracleMoments",
    "ParameterError",
    "Report",
    "SeedSpec",
    "TiesError",
    "aggregate",
    "besov_norm",
    "brownian_bridge",
    "brownian_motion",
    "continuous_ecdf",
    "continuous_ecdf_eval",
    "dyadic_grid",
    "ecdf_eval",
    "empirical_coefficients",
    "empirical_process_eval",
    "enumeration_oracle",
    "extract_coefficients",
    "level_statistic",
    "little_o_profile",
    "make_generator",
    "modulus_of_continuity",
    "order_statistics",
    "p_monotonicity_check",
    "reconstruct_path",
    "run_concentration_experiment",
    "run_moment_experiment",
    "run_roynette_experiment",
    "run_sandwich_experiment",
    "sample_gaussian",
    "sample_uniform",
    "scale_triangle",
    "sup_distance",
]
