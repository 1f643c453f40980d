"""Exception types shared across the package."""


class ChiralPulseError(Exception):
    """Base class for all package errors."""


class NonFiniteHamiltonian(ChiralPulseError):
    """A sampled Hamiltonian entry is NaN or infinite (unclamped pulse singularity)."""


class SingularTheta(ChiralPulseError):
    """The mixing angle hits sin(theta) = cos(theta), where the coupling diverges."""


class ClampViolation(ChiralPulseError):
    """Pulse clamping would be required outside the first/last 1% of the duration."""


class QuadratureFailure(ChiralPulseError):
    """Quadrature did not converge to the requested tolerance within its panel cap."""


class NoInteriorMinimum(ChiralPulseError):
    """A 1-D scan found its minimum on the range boundary; widen the range."""
