"""Error models, perturbative fidelities, sensitivities, and the 1-D optimum search.

Two experimental imperfections are modelled on top of a designed schedule:

* systematic error: the whole Hamiltonian is rescaled, H -> (1 + alpha) H,
  with dimensionless amplitude alpha;
* detuning error: a diagonal shift delta * (|3><3| - |1><1|) with delta in
  units of 1/T.

Second-order perturbation theory around the transported zero-eigenvalue
channel gives closed-form fidelities, identical for both handednesses:

    F_systematic = 1 - alpha^2 * q_alpha
    F_detuning   = 1 - (delta^2 / 4) * q_delta

with the sensitivities

    q_alpha = | int_0^T (theta_dot sin(phi) + i phi_dot) e^{i eta_plus} dt |^2
    q_delta = | int_0^T [cos(2 theta) sin(2 phi)
                         + 2 i sin(2 theta) sin(phi)] e^{i eta_plus} dt |^2

Smaller q means a flatter fidelity around zero error.  For the constant-theta
family the t -> 0 endpoint oscillates with logarithmically divergent phase, so
those integrals are evaluated after the substitution u = -log tan(phi/2),
which maps them onto smooth, exponentially decaying integrands on (0, inf):

    q_alpha(sps) = | int_0^inf sech(u) e^{iu} du |^2              ~= 1.11726
    q_delta(sps) = (16 T^2/pi^2) | int_0^inf sech(u)^2 tanh(u) e^{iu} du |^2
                                                                  ~= 0.28371 T^2
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    Handedness,
    hamiltonian_stack,
    make_grid,
    ordered_product,
    step_propagators,
)
from .errors import NoInteriorMinimum
from .invariants import (
    InvariantSchedule,
    PulseSchedule,
    ansatz_schedule,
    pulses_from_invariant,
)
from .quadrature import DEFAULT_ABS_TOL, complex_quad

GOLDEN_RATIO = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ErrorModel:
    """Systematic scaling (alpha) and/or diagonal detuning (delta, units 1/T)."""

    alpha: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.delta)):
            raise ValueError("error amplitudes must be finite")

    @classmethod
    def systematic(cls, alpha: float) -> "ErrorModel":
        return cls(alpha=alpha)

    @classmethod
    def detuning(cls, delta: float) -> "ErrorModel":
        return cls(delta=delta)

    @property
    def kind(self) -> str:
        if self.alpha != 0.0 and self.delta != 0.0:
            return "combined"
        if self.delta != 0.0:
            return "detuning"
        if self.alpha != 0.0:
            return "systematic"
        return "none"


def detuning_operator() -> np.ndarray:
    """|3><3| - |1><1| as a matrix (hbar = 1)."""
    return np.diag([-1.0, 0.0, 1.0]).astype(complex)


def _sech(u):
    # exp-based form avoids cosh overflow for large arguments
    e = np.exp(-np.abs(u))
    return 2.0 * e / (1.0 + e * e)


def _sensitivity_amplitude(schedule: InvariantSchedule, which: str,
                           abs_tol: float = DEFAULT_ABS_TOL) -> complex:
    """The complex channel-leakage integral whose squared modulus is q."""
    T = schedule.duration
    if schedule.kind == "sps":
        if which == "alpha":
            return 1j * complex_quad(lambda u: _sech(u) * np.exp(1j * u),
                                     0.0, np.inf, abs_tol)
        return (-4.0 * T / np.pi) * complex_quad(
            lambda u: _sech(u) ** 2 * np.tanh(u) * np.exp(1j * u),
            0.0, np.inf, abs_tol)

    def integrand(t):
        phase = np.exp(1j * schedule.eta_plus_of(t))
        phi = schedule.phi_of(t)
        if which == "alpha":
            envelope = (schedule.theta_dot_of(t) * np.sin(phi)
                        + 1j * schedule.phi_dot_of(t))
        else:
            theta = schedule.theta_of(t)
            envelope = (np.cos(2 * theta) * np.sin(2 * phi)
                        + 2j * np.sin(2 * theta) * np.sin(phi))
        return envelope * phase

    return complex_quad(integrand, 0.0, T, abs_tol)


def q_alpha(schedule: InvariantSchedule, abs_tol: float = DEFAULT_ABS_TOL) -> float:
    """Systematic-error sensitivity (negative slope of F against alpha^2 at 0)."""
    return float(np.abs(_sensitivity_amplitude(schedule, "alpha", abs_tol)) ** 2)


def q_delta(schedule: InvariantSchedule, abs_tol: float = DEFAULT_ABS_TOL) -> float:
    """Detuning-error sensitivity; fidelity falls as (delta^2/4) * q_delta."""
    return float(np.abs(_sensitivity_amplitude(schedule, "delta", abs_tol)) ** 2)


def sensitivity_kind(kind: str):
    """("systematic", q_alpha) or ("detuning", q_delta) for a kind name or alias."""
    key = kind.strip().lower()
    if key in ("systematic", "alpha", "systematicsensitivity"):
        return "systematic", q_alpha
    if key in ("detuning", "delta", "detuningsensitivity"):
        return "detuning", q_delta
    raise ValueError(f"unknown sensitivity kind {kind!r}")


@dataclass(frozen=True)
class SensitivityResult:
    n: float
    q_alpha: float
    q_delta: float

    def __post_init__(self):
        if self.q_alpha < 0 or self.q_delta < 0:
            raise ValueError("sensitivities are squared moduli and cannot be negative")


def sensitivity_pair(n: float, duration: float = 1.0,
                     abs_tol: float = DEFAULT_ABS_TOL) -> SensitivityResult:
    schedule = ansatz_schedule(n, duration)
    return SensitivityResult(n=n, q_alpha=q_alpha(schedule, abs_tol),
                             q_delta=q_delta(schedule, abs_tol))


def perturbative_fidelity(schedule: InvariantSchedule, error: ErrorModel,
                          abs_tol: float = DEFAULT_ABS_TOL) -> float:
    """Closed-form second-order fidelity; the same value holds for both handednesses.

    Only pure error kinds have a closed form (combined errors carry a cross
    term); use ``exact_fidelity`` for those.
    """
    kind = error.kind
    if kind == "none":
        return 1.0
    if kind == "systematic":
        return second_order_fidelity(kind, error.alpha, q_alpha(schedule, abs_tol))
    if kind == "detuning":
        return second_order_fidelity(kind, error.delta, q_delta(schedule, abs_tol))
    raise ValueError("perturbative fidelity is defined for pure error kinds only")


def second_order_fidelity(kind: str, amplitude: float, q: float) -> float:
    """1 - alpha^2 * q ("systematic") or 1 - (delta^2 / 4) * q ("detuning")."""
    scale = amplitude ** 2 if kind == "systematic" else 0.25 * amplitude ** 2
    return 1.0 - scale * q


def exact_fidelity(schedule: InvariantSchedule, error: ErrorModel,
                   handedness: Handedness, steps: int = 4000,
                   clamp: float | None = None) -> float:
    """Propagate |2> under the perturbed Hamiltonian; overlap with the unperturbed target.

    The target stays |3> (left) or |1> (right): the error perturbs the
    dynamics, not the goal.  Pulses are sampled, clamped (default 100/T), at
    the midpoints of the uniform `steps`-interval grid.
    """
    grid = make_grid(schedule.duration, steps)
    pulses = pulses_from_invariant(schedule, 0.5 * (grid[:-1] + grid[1:]), clamp)
    return fidelity_from_pulses(pulses, np.diff(grid), error, handedness)


def fidelity_from_pulses(pulses: PulseSchedule, dts: np.ndarray, error: ErrorModel,
                         handedness: Handedness) -> float:
    """Target-level population after the steps `dts`, pulses sampled at their midpoints.

    The propagation behind ``exact_fidelity``; sweeps sample each scheme's
    pulses once and call this for every error point.  Only the final state
    from |2> is needed, so the closed-form step propagators are multiplied
    into one matrix and its |2> column read off.  Each point is computed on its
    own, so its value does not depend on which sweep asked for it.
    """
    stack = hamiltonian_stack(pulses.omega, pulses.omega_q, handedness.coupling_sign,
                              error.alpha, error.delta)
    total = ordered_product(step_propagators(stack, dts))
    return float(np.abs(total[handedness.target_level - 1, 1]) ** 2)


@dataclass(frozen=True)
class OptimumResult:
    kind: str
    n_star: float
    q_min: float


def golden_section(f, a: float, b: float, tol: float) -> float:
    """Minimize a unimodal function on [a, b] to bracket width `tol`."""
    c = b - GOLDEN_RATIO * (b - a)
    d = a + GOLDEN_RATIO * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_RATIO * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_RATIO * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimize_n(kind: str, n_range: tuple[float, float] = (0.5, 1.5),
               tolerance: float = 1e-3, duration: float = 1.0,
               coarse_points: int = 201,
               abs_tol: float = DEFAULT_ABS_TOL) -> OptimumResult:
    """Minimize q_alpha(n) or q_delta(n) over the phase-ansatz family.

    A coarse grid scan (>= 200 points) brackets the minimum; golden-section
    search refines it to |delta n| < tolerance.  ``NoInteriorMinimum`` is
    raised when the coarse minimum sits on the range boundary.
    """
    key, measure = sensitivity_kind(kind)
    lo, hi = float(n_range[0]), float(n_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid n range {n_range}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    coarse_points = max(int(coarse_points), 200)

    def objective(n: float) -> float:
        return measure(ansatz_schedule(n, duration), abs_tol)

    grid = np.linspace(lo, hi, coarse_points)
    values = np.array([objective(n) for n in grid])
    imin = int(np.argmin(values))
    if imin in (0, len(grid) - 1):
        raise NoInteriorMinimum(
            f"q_{key} attains its minimum at the n-range boundary {grid[imin]:g}; "
            "widen the range"
        )
    n_star = golden_section(objective, grid[imin - 1], grid[imin + 1], tolerance)
    return OptimumResult(kind=key, n_star=float(n_star), q_min=float(objective(n_star)))
