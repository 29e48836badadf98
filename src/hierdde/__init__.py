"""Spectra of linear delay systems with hierarchically large delays.

The library computes exact eigenvalues of

    x'(t) = A0 x(t) + sum_k Ak x(t - sigma_k eps**-k)

inside complex windows (argument-principle root isolation plus Newton
polishing), the asymptotic objects that organise them for small eps
(strong spectrum, degeneracy ladder, spectral manifolds per delay scale),
a stability classifier built on the manifold suprema, and a validation
harness matching located eigenvalues against the asymptotic sets.
"""

from .errors import (HierDdeError, ConfigError, DimensionError,
                     EvaluationRangeError, BoundaryZeroError,
                     ResolutionError, TrivialityError, DegenerateSystemError)
from .model import (DelaySystem, EXP_ARG_LIMIT, check_eps, delays,
                    guard_real_extent, char_matrix, char_value, char_values,
                    char_derivative, char_function, axis_seeds,
                    system_to_dict,
                    system_from_dict, save_system, load_system)
from .rootfinder import Rectangle, RootResult, count_zeros, find_roots
from .degeneracy import (LadderLevel, DegeneracyLadder, build_ladder,
                         check_nd, truncated_char, strong_stable_spectrum,
                         dump_ladder)
from .manifolds import (PhasePoint, ManifoldSample, ManifoldTable,
                        StrongSpectrum, SingularityFlags, GridSpec,
                        canonical_phase,
                        default_omega_bound, strong_spectrum,
                        truncated_char_poly, gamma_branches,
                        singularity_test, rescale, manifold_grid,
                        assemble_A_k, manifold_csv)
from .classify import SupEstimate, StabilityVerdict, sup_gamma, classify
from .scalar2 import (ScalarParams, gamma1, gamma1_zeros, gamma2,
                      gamma2_peak_omega, sup_gamma2, phi_singular,
                      classify_scalar)
from .harness import (RunConfig, Assignment, EpsRecord, ValidationReport,
                      SpectrumRun, SpectrumResult, ManifoldsResult,
                      config_from_dict, load_config, validation_window,
                      run_spectrum, run_validate, run_manifolds,
                      run_classify, run_example, preset_params,
                      preset_system, preset_config, PRESET_NAMES)

__version__ = "0.1.0"

__all__ = [
    "HierDdeError", "ConfigError", "DimensionError", "EvaluationRangeError",
    "BoundaryZeroError", "ResolutionError", "TrivialityError",
    "DegenerateSystemError",
    "DelaySystem", "EXP_ARG_LIMIT", "check_eps", "delays",
    "guard_real_extent", "char_matrix", "char_value", "char_values",
    "char_derivative", "char_function", "axis_seeds", "system_to_dict",
    "system_from_dict",
    "save_system", "load_system",
    "Rectangle", "RootResult", "count_zeros", "find_roots",
    "LadderLevel", "DegeneracyLadder", "build_ladder", "check_nd",
    "truncated_char", "strong_stable_spectrum", "dump_ladder",
    "PhasePoint", "ManifoldSample", "ManifoldTable", "StrongSpectrum",
    "SingularityFlags", "GridSpec", "canonical_phase", "default_omega_bound", "strong_spectrum",
    "truncated_char_poly", "gamma_branches", "singularity_test", "rescale",
    "manifold_grid", "assemble_A_k", "manifold_csv",
    "SupEstimate", "StabilityVerdict", "sup_gamma", "classify",
    "ScalarParams", "gamma1", "gamma1_zeros", "gamma2", "gamma2_peak_omega",
    "sup_gamma2", "phi_singular", "classify_scalar",
    "RunConfig", "Assignment", "EpsRecord", "ValidationReport",
    "SpectrumRun", "SpectrumResult", "ManifoldsResult", "config_from_dict",
    "load_config", "validation_window", "run_spectrum", "run_validate",
    "run_manifolds", "run_classify", "run_example", "preset_params",
    "preset_system", "preset_config", "PRESET_NAMES",
    "__version__",
]
