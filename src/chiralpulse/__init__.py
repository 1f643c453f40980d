"""Invariant-based pulse design for cyclic three-level chiral discrimination.

The package designs one shared pulse pair that drives left- and right-handed
cyclic three-level systems from |2> to |3> and |1> respectively, verifies the
transfer by exact propagation, and optimizes the schedule family against
systematic and detuning errors.
"""

from ._version import __version__
from .dynamics import (
    Handedness,
    QuantumState,
    Trajectory,
    make_grid,
    propagate,
)
from .errors import (
    ChiralPulseError,
    ClampViolation,
    NoInteriorMinimum,
    NonFiniteHamiltonian,
    QuadratureFailure,
    SingularTheta,
)
from .invariants import (
    InvariantSchedule,
    PulseSchedule,
    ValidationReport,
    ansatz_schedule,
    make_schedule,
    pulses_from_invariant,
    schedule_hamiltonian,
    sps_schedule,
    validate_schedule,
)
from .robustness import (
    OptimumResult,
    exact_fidelities,
    optimize_n,
    q_alpha,
    q_delta,
)
from .sweeps import (
    SweepResult,
    fidelity_curve,
    fidelity_heatmap,
    population_trace,
)

__all__ = [
    "__version__",
    # dynamics
    "Handedness", "QuantumState", "Trajectory", "make_grid", "propagate",
    # errors
    "ChiralPulseError", "ClampViolation", "NoInteriorMinimum",
    "NonFiniteHamiltonian", "QuadratureFailure", "SingularTheta",
    # invariants
    "InvariantSchedule", "PulseSchedule", "ValidationReport",
    "ansatz_schedule", "make_schedule",
    "pulses_from_invariant", "schedule_hamiltonian", "sps_schedule",
    "validate_schedule",
    # robustness
    "OptimumResult", "exact_fidelities", "optimize_n", "q_alpha", "q_delta",
    # sweeps
    "SweepResult", "fidelity_curve", "fidelity_heatmap", "population_trace",
]
