"""Spectral Galerkin solvers for the stochastic Allen-Cahn equation on [0,1].

Exponential integrators with adaptive, tamed, and hybrid time stepping,
coupled strong-error studies, and the command-line front end `allencahn`.
"""

from .drift import CubicDrift, evaluate_drift, inner_product_x_f
from .errors import BlowUpError, ConfigError, RunawayPartitionError, StudyError
from .experiments import (
    FitResult,
    SampleOutcome,
    StudyConfig,
    StudyResult,
    convergence_study,
    coupled_error_sample,
    fit_order,
    initial_state,
    rms_error,
    stability_monitor,
)
from .config import load_config, load_preset, parse_config, render_config
from .noise import NoiseSpec, NoiseStream
from .spectral import (
    SpectralField,
    apply_fractional_power,
    apply_semigroup,
    eigenvalues,
    l2_norm,
    lp_norm,
    sup_norm,
)
from .stepping import (
    Scheme,
    StepRecord,
    TimestepLaw,
    integrate,
    integrate_block,
)
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "ConfigError",
    "CubicDrift",
    "FitResult",
    "NoiseSpec",
    "NoiseStream",
    "RunawayPartitionError",
    "SampleOutcome",
    "Scheme",
    "SpectralField",
    "StepRecord",
    "StudyConfig",
    "StudyError",
    "StudyResult",
    "TimestepLaw",
    "apply_fractional_power",
    "apply_semigroup",
    "convergence_study",
    "coupled_error_sample",
    "eigenvalues",
    "evaluate_drift",
    "fit_order",
    "initial_state",
    "inner_product_x_f",
    "integrate",
    "integrate_block",
    "l2_norm",
    "load_config",
    "load_preset",
    "lp_norm",
    "parse_config",
    "render_config",
    "rms_error",
    "run_validation",
    "stability_monitor",
    "sup_norm",
    "__version__",
]
