"""Error models, second-order and exact fidelities, sensitivities, and the optimum over n.

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
which maps them onto smooth integrands on (0, inf) that decay like e^-u, so
the integrals stop at u = 40 (the dropped tail is O(e^-40) ~ 4e-18):

    q_alpha(sps) = | int_0^inf sech(u) e^{iu} du |^2              ~= 1.11726
    q_delta(sps) = (16 T^2/pi^2) | int_0^inf sech(u)^2 tanh(u) e^{iu} du |^2
                                                                  ~= 0.28371 T^2

``second_order_fidelity`` evaluates the closed forms from a given q, so a
sweep computes q once per scheme; ``exact_fidelity`` propagates the perturbed
Hamiltonian instead, and ``optimize_n`` minimizes q over the ansatz weight n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DEFAULT_STEPS,
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
from .quadrature import complex_quad

GOLDEN_RATIO = (np.sqrt(5.0) - 1.0) / 2.0
COARSE_POINTS = 201     # n grid that brackets the minimum for golden-section search


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



def _sensitivity_amplitude(schedule: InvariantSchedule, which: str) -> complex:
    """The complex channel-leakage integral whose squared modulus is q."""
    T = schedule.duration
    if schedule.kind == "sps":
        # the tail beyond u = 40 is O(e^-40), below the quadrature tolerance
        if which == "alpha":
            return 1j * complex_quad(lambda u: np.exp(1j * u) / np.cosh(u), 0.0, 40.0)
        return (-4.0 * T / np.pi) * complex_quad(
            lambda u: np.tanh(u) * np.exp(1j * u) / np.cosh(u) ** 2, 0.0, 40.0)

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

    return complex_quad(integrand, 0.0, T)


def q_alpha(schedule: InvariantSchedule) -> float:
    """Systematic-error sensitivity (negative slope of F against alpha^2 at 0)."""
    return float(np.abs(_sensitivity_amplitude(schedule, "alpha")) ** 2)


def q_delta(schedule: InvariantSchedule) -> float:
    """Detuning-error sensitivity; fidelity falls as (delta^2/4) * q_delta."""
    return float(np.abs(_sensitivity_amplitude(schedule, "delta")) ** 2)


def sensitivity_kind(kind: str):
    """("systematic", q_alpha) or ("detuning", q_delta) for a kind name or alias."""
    key = kind.strip().lower()
    if key in ("systematic", "alpha", "systematicsensitivity"):
        return "systematic", q_alpha
    if key in ("detuning", "delta", "detuningsensitivity"):
        return "detuning", q_delta
    raise ValueError(f"unknown sensitivity kind {kind!r}")


def second_order_fidelity(kind: str, amplitude: float, q: float) -> float:
    """1 - alpha^2 * q ("systematic") or 1 - (delta^2 / 4) * q ("detuning")."""
    scale = amplitude ** 2 if kind == "systematic" else 0.25 * amplitude ** 2
    return 1.0 - scale * q


def exact_fidelity(schedule: InvariantSchedule, error: ErrorModel,
                   handedness: Handedness, steps: int = DEFAULT_STEPS,
                   clamp: float | None = None) -> float:
    """Propagate |2> under the perturbed Hamiltonian; overlap with the unperturbed target.

    The target stays |3> (left) or |1> (right): the error perturbs the
    dynamics, not the goal.  Pulses are sampled, clamped (default
    ``default_clamp``), at the midpoints of the uniform `steps`-interval grid.
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

    Raises ``ValueError`` if the value is not finite: finite Hamiltonian
    entries can still overflow r^2 = sum |H_ij|^2 / 2 in the step propagators.
    """
    stack = hamiltonian_stack(pulses.omega, pulses.omega_q, handedness.coupling_sign,
                              error.alpha, error.delta)
    total = ordered_product(step_propagators(stack, dts))
    value = float(np.abs(total[handedness.target_level - 1, 1]) ** 2)
    if not math.isfinite(value):
        raise ValueError(f"exact fidelity is {value}: the step propagators overflowed "
                         "(Hamiltonian entries too large to exponentiate)")
    return value


@dataclass(frozen=True)
class OptimumResult:
    kind: str
    n_star: float
    q_min: float


def golden_section(f, a: float, b: float, tol: float) -> float:
    """Minimize a unimodal function on [a, b] to bracket width `tol` or float resolution."""
    c = b - GOLDEN_RATIO * (b - a)
    d = a + GOLDEN_RATIO * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        width = abs(b - a)
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_RATIO * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_RATIO * (b - a)
            fd = f(d)
        if abs(b - a) >= width:     # tol is below the float spacing of a and b
            break
    return 0.5 * (a + b)


def optimize_n(kind: str, n_range: tuple[float, float] = (0.5, 1.5),
               tolerance: float = 1e-3, duration: float = 1.0) -> OptimumResult:
    """Minimize q_alpha(n) or q_delta(n) over the phase-ansatz family.

    A COARSE_POINTS grid scan brackets the minimum; golden-section search
    refines it to |delta n| < tolerance.  ``ValueError`` is raised when a
    coarse q is not finite, and ``NoInteriorMinimum`` when the coarse minimum
    sits on the range boundary.
    """
    key, measure = sensitivity_kind(kind)
    lo, hi = float(n_range[0]), float(n_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid n range {n_range}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")

    def objective(n: float) -> float:
        return measure(ansatz_schedule(n, duration))

    grid = np.linspace(lo, hi, COARSE_POINTS)
    values = np.array([objective(n) for n in grid])
    if not np.all(np.isfinite(values)):
        k = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"q_{key} is {values[k]} at n = {grid[k]:g}; "
                         "the sensitivity overflows at this duration")
    imin = int(np.argmin(values))
    if imin in (0, len(grid) - 1):
        raise NoInteriorMinimum(
            f"q_{key} attains its minimum at the n-range boundary {grid[imin]:g}; "
            "widen the range"
        )
    n_star = golden_section(objective, grid[imin - 1], grid[imin + 1], tolerance)
    return OptimumResult(kind=key, n_star=float(n_star), q_min=float(objective(n_star)))
