"""Filter-based regularization of statistical linear inverse problems with
SOLIT, Lepskii-type, oracle and noise-level parameter choice rules, plus a
Monte Carlo experiment harness for convergence-rate studies."""

__version__ = "0.1.0"  # set before the submodules load: harness records it in meta.json

from .candidates import (
    CandidateGrid,
    build_grid,
    line_search_variance,
    pairwise_variance_v,
    variance_V,
)
from .errors import ConfigurationError, InvalidParameterError
from .filters import (
    FilterSpec,
    ValidationReport,
    filter_weight,
    validate_ordered_filter,
)
from .genchi2 import (
    critical_value_z,
    cumulant_traces,
    ltz_quantile_for_weights,
    ltz_tail_quantile,
    ltz_tail_sf,
    noncentral_chi2_sf,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    fit_rate,
    read_results,
    run_experiment,
    verify_oracle_inequality,
    write_results,
)
from .selectors import (
    ThresholdTable,
    build_thresholds,
    lepskii_select,
    noise_level_select,
    optimal_select,
    oracle_constants,
    oracle_select,
    price_of_adaptation,
    solit_select,
)
from .sequence_model import (
    SpectralProblem,
    estimate,
    simulate_data,
)
from .testproblems import (
    antiderivative_problem,
    get_problem,
    gradiometry_problem,
    heat_problem,
    synthesize,
)

__all__ = [
    "CandidateGrid",
    "ConfigurationError",
    "ExperimentConfig",
    "ExperimentResult",
    "FilterSpec",
    "InvalidParameterError",
    "SpectralProblem",
    "ThresholdTable",
    "ValidationReport",
    "antiderivative_problem",
    "build_grid",
    "build_thresholds",
    "critical_value_z",
    "cumulant_traces",
    "estimate",
    "filter_weight",
    "fit_rate",
    "get_problem",
    "gradiometry_problem",
    "heat_problem",
    "lepskii_select",
    "line_search_variance",
    "ltz_quantile_for_weights",
    "ltz_tail_quantile",
    "ltz_tail_sf",
    "noise_level_select",
    "noncentral_chi2_sf",
    "optimal_select",
    "oracle_constants",
    "oracle_select",
    "pairwise_variance_v",
    "price_of_adaptation",
    "read_results",
    "run_experiment",
    "simulate_data",
    "solit_select",
    "synthesize",
    "validate_ordered_filter",
    "variance_V",
    "verify_oracle_inequality",
    "write_results",
]
