"""Shuffling-based gradient methods with epoch-level Nesterov acceleration,
guarantee-backed step-size schedules, convergence diagnostics, and a
benchmark harness."""

from .data import Dataset, ParseError, load_libsvm, parse_libsvm, serialize_libsvm
from .diagnostics import (DispersionRecord, DriftCheck, RateFit, center_update_errors,
                          check_drift_bound, convergence_bound, epoch_dispersion, fit_rate,
                          momentum_reconstruction_errors)
from .harness import (ConfigError, ExperimentConfig, HarnessError, RunSummary,
                      build_objective, emit_plot_data, run_experiment)
from .objectives import (OBJECTIVES, LogisticObjective, Objective, QuadraticObjective,
                         ReferenceSolveError, SoftmaxObjective, make_quadratic,
                         solve_reference, variance_at_point)
from .optimizers import (OPTIMIZERS, DivergenceError, EpochTrace, RunResult,
                         TraceOptions, run)
from .schedules import (CBRT12, ScheduleError, ScheduleKind, ScheduleSpec,
                        epoch_step_size)
from .shuffling import (SchemeKind, ShufflingScheme, generate_permutation,
                        is_permutation, random_permutation, uniform_indices)

__version__ = "0.1.0"
