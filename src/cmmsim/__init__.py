"""Steady-state quantum correlations of a dual-driven cavity-magnon-
mechanics system: mean-field solver, linearized covariance dynamics,
Gaussian entanglement measures, and a deterministic sweep engine."""

from .params import (PhysicalParams, NoiseOccupations, ParamBatch,
                     baseline_params, drive_amplitude, thermal_occupation,
                     validate, HBAR, BOLTZMANN, TWO_PI)
from .meanfield import (MeanFieldState, magnon_amplitude_approx,
                        solve_steady_state, steady_state_residual)
from .dynamics import (build_diffusion, build_drift, integrate_covariance,
                       is_stable, solve_lyapunov)
from .entanglement import (EntanglementReport, Partition, check_monogamy,
                           check_physicality, contangle, entanglement_report,
                           log_negativity, min_residual_contangle,
                           partial_transpose, reduce_cm, residual_contangle,
                           symplectic_eigenvalues, symplectic_form)
from .sweep import (SweepAxis, SweepRow, SweepSpec, SweepTable, apply_axis,
                    apply_pump_mode, evaluate_batch, evaluate_point,
                    optimize_phase, run_sweep)
from .errors import (CmmError, ConfigError, IntegrationError,
                     NoStablePointError, NoSteadyStateError, NumericalError,
                     ParameterError, SingularityError, UnstableSystemError)

__version__ = "0.1.0"

__all__ = [
    "PhysicalParams", "NoiseOccupations", "ParamBatch", "baseline_params",
    "drive_amplitude", "thermal_occupation", "validate",
    "HBAR", "BOLTZMANN", "TWO_PI",
    "MeanFieldState", "magnon_amplitude_approx", "solve_steady_state",
    "steady_state_residual",
    "build_diffusion", "build_drift", "integrate_covariance", "is_stable",
    "solve_lyapunov",
    "EntanglementReport", "Partition", "check_monogamy", "check_physicality",
    "contangle", "entanglement_report", "log_negativity",
    "min_residual_contangle", "partial_transpose", "reduce_cm",
    "residual_contangle", "symplectic_eigenvalues", "symplectic_form",
    "SweepAxis", "SweepRow", "SweepSpec", "SweepTable", "apply_axis",
    "apply_pump_mode", "evaluate_batch", "evaluate_point", "optimize_phase",
    "run_sweep",
    "CmmError", "ConfigError", "IntegrationError", "NoStablePointError",
    "NoSteadyStateError", "NumericalError", "ParameterError",
    "SingularityError", "UnstableSystemError",
]
