"""Steady-state quantum correlations of a dual-driven cavity-magnon-
mechanics system: mean-field solver, linearized covariance dynamics,
Gaussian entanglement measures, and a deterministic sweep engine."""

from .params import (PhysicalParams, ParamBatch, baseline_params, validate,
                     HBAR, BOLTZMANN, TWO_PI)
from .meanfield import (MeanFieldState, PhaseWindow, magnon_amplitude_approx,
                        phase_window, solve_steady_state,
                        steady_state_residual)
from .dynamics import build_diffusion, build_drift, solve_lyapunov
from .entanglement import (EntanglementReport, entanglement_report,
                           symplectic_eigenvalues)
from .sweep import (SweepAxis, SweepRow, SweepSpec, SweepTable, apply_axis,
                    apply_pump_mode, evaluate_batch, evaluate_point,
                    optimize_phase, run_sweep)
from .errors import (CmmError, ConfigError, NoStablePointError,
                     NoSteadyStateError, NumericalError, ParameterError,
                     SingularityError, UnstableSystemError)

__version__ = "0.1.0"

__all__ = [
    "PhysicalParams", "ParamBatch", "baseline_params", "validate",
    "HBAR", "BOLTZMANN", "TWO_PI",
    "MeanFieldState", "PhaseWindow", "magnon_amplitude_approx",
    "phase_window", "solve_steady_state", "steady_state_residual",
    "build_diffusion", "build_drift", "solve_lyapunov",
    "EntanglementReport", "entanglement_report", "symplectic_eigenvalues",
    "SweepAxis", "SweepRow", "SweepSpec", "SweepTable", "apply_axis",
    "apply_pump_mode", "evaluate_batch", "evaluate_point", "optimize_phase",
    "run_sweep",
    "CmmError", "ConfigError", "NoStablePointError", "NoSteadyStateError",
    "NumericalError", "ParameterError", "SingularityError",
    "UnstableSystemError",
]
