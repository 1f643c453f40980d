"""Second-order and exact fidelities, sensitivities, and the optimum over n.

Two experimental imperfections are modelled on top of a designed schedule:

* systematic error: the whole Hamiltonian is rescaled, H -> (1 + alpha) H,
  with dimensionless amplitude alpha;
* detuning error: a diagonal shift delta * (|3><3| - |1><1|) with delta in
  units of 1/T.

Second-order perturbation theory around the transported zero-eigenvalue
channel gives closed-form fidelities, identical for both handednesses:

    F_systematic = 1 - alpha^2 * q_alpha
    F_detuning   = 1 - (delta^2 / 4) * q_delta

with the sensitivities, integrals over u = t/T in [0, 1]

    q_alpha = | int_0^1 T (theta_dot sin(phi) + i phi_dot) e^{i eta_plus} du |^2
    q_delta = T^2 | int_0^1 [cos(2 theta) sin(2 phi)
                             + 2 i sin(2 theta) sin(phi)] e^{i eta_plus} du |^2

Both integrands are T-free (T theta_dot and T phi_dot are rates per unit
T), so the quadrature's absolute tolerance means the same at every
duration: q_alpha does not depend on T, and q_delta(T) = T^2 q_delta(1) up
to rounding.  ``_sensitivity`` computes every q and raises ``ValueError``
when one is not finite (q_delta overflows at T = 1e300).

Smaller q means a flatter fidelity around zero error.  For the constant-theta
family the t -> 0 endpoint oscillates with logarithmically divergent phase, so
those integrals are evaluated after the substitution v = -log tan(phi/2),
which maps them onto smooth integrands on (0, inf) that decay like e^-v, so
the integrals stop at v = 40 (the dropped tail is O(e^-40) ~ 4e-18):

    q_alpha(sps) = | int_0^inf sech(v) e^{iv} dv |^2              ~= 1.11726
    q_delta(sps) = (16 T^2/pi^2) | int_0^inf sech(v)^2 tanh(v) e^{iv} dv |^2
                                                                  ~= 0.28371 T^2

These are the q of the unclamped sps schedule, whose cot pulse they
integrate down to t = 0; the dynamics propagate the clamped one.  At the
CLI's default clamp, 100/T, the exact curvature of F (central differences
of ``exact_fidelities`` at eps = 1e-2, 1600 steps) is 2.26% below q_alpha
and 0.87% above q_delta.  No clamp is active on the oss and osd pulses, and
there q is the exact curvature to within the differencing error.

``second_order_fidelity`` evaluates the closed forms from a given q, so a
sweep computes q once per scheme; ``exact_fidelities`` propagates the
perturbed Hamiltonian instead, one fidelity per error point (alpha, delta)
for both handednesses, and ``optimize_n`` minimizes q over the ansatz weight n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import Handedness, _cf4_exponents, _cf4_products
from .errors import NoInteriorMinimum
from .invariants import InvariantSchedule, ansatz_schedule, schedule_hamiltonian
from .quadrature import complex_quad

GOLDEN_RATIO = (np.sqrt(5.0) - 1.0) / 2.0
COARSE_POINTS = 201     # n grid that brackets the minimum for golden-section search


@functools.cache
def _sps_integral(which: str) -> complex:
    """The T-free sps amplitude of q_alpha ("alpha") or q_delta, once per process."""
    # the tail beyond v = 40 is O(e^-40), below the quadrature tolerance
    if which == "alpha":
        return 1j * complex_quad(lambda v: np.exp(1j * v) / np.cosh(v), 0.0, 40.0)
    return (-4.0 / np.pi) * complex_quad(
        lambda v: np.tanh(v) * np.exp(1j * v) / np.cosh(v) ** 2, 0.0, 40.0)


def _sensitivity_amplitude(schedule: InvariantSchedule, which: str) -> complex:
    """The T-free channel-leakage amplitude of q_alpha ("alpha") or q_delta, over u = t/T.

    The q_delta integrand reads phi, theta and sin(phi) alone, so it takes
    angle-only samples (``sample(t, rates=False)``); the q_alpha integrand
    reads the rates, and takes full ones.
    """
    if schedule.kind == "sps":
        return _sps_integral(which)
    T = schedule.duration

    def integrand(u):
        t = T * u
        phase = np.exp(1j * schedule.eta_plus_of(t))
        s = schedule.sample(t, rates=which == "alpha")
        if which == "alpha":    # dt = T du, and T theta_dot and T phi_dot are T-free
            envelope = (T * s.theta_dot) * s.sin_phi + 1j * (T * s.phi_dot)
        else:
            envelope = (np.cos(2 * s.theta) * np.sin(2 * s.phi)
                        + 2j * np.sin(2 * s.theta) * s.sin_phi)
        return envelope * phase

    return complex_quad(integrand, 0.0, 1.0)


def _sensitivity(schedule: InvariantSchedule, which: str) -> float:
    """q_alpha ("alpha") or q_delta, the squared amplitude; the delta amplitude times T.

    Every q is computed here.  Raises ``ValueError`` naming the q, the
    schedule and T if q is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite q is rejected next
        amplitude = _sensitivity_amplitude(schedule, which)
        q = float(np.abs(amplitude * schedule.duration if which == "delta" else amplitude) ** 2)
    if not np.isfinite(q):
        raise ValueError(f"q_{which} of {schedule.name} is {q} at T = {schedule.duration:g}: "
                         "the sensitivity overflows")
    return q


def q_alpha(schedule: InvariantSchedule) -> float:
    """Systematic-error sensitivity (negative slope of F against alpha^2 at 0); T-free."""
    return _sensitivity(schedule, "alpha")


def q_delta(schedule: InvariantSchedule) -> float:
    """Detuning-error sensitivity; fidelity falls as (delta^2/4) * q_delta.

    q_delta = T^2 times a T-free integral over u = t/T, so q_delta(T) = T^2 q_delta(1)
    up to rounding.  Raises ``ValueError`` when T^2 overflows it.
    """
    return _sensitivity(schedule, "delta")


def second_order_fidelity(kind: str, amplitude, q: float):
    """1 - alpha^2 * q ("systematic") or 1 - (delta^2 / 4) * q ("detuning"), elementwise."""
    scale = amplitude ** 2 if kind == "systematic" else 0.25 * amplitude ** 2
    return 1.0 - scale * q


def exact_fidelities(schedule: InvariantSchedule, alphas, deltas,
                     steps: int, clamp: float) -> np.ndarray:
    """Transfer fidelities under the perturbed Hamiltonian, one per error point.

    `alphas` and `deltas` are broadcast against each other into the error
    points (alpha, delta).  The fidelity is the left-handed |3> population
    from |2> (the error perturbs the dynamics, not the goal); the
    right-handed |1> population is the same number (see the ``sweeps`` module
    docstring).  The pulses are sampled once, capped at `clamp`, at the
    ``gauss_nodes`` of the schedule's `steps`-interval grid
    (``InvariantSchedule.grid``: uniform for the ansatz, graded after the
    clamp switch for sps), through the CF4 front end of ``propagate``
    (``dynamics._cf4_exponents`` on ``schedule_hamiltonian``).  It raises
    what that sampling raises (``ClampViolation``, ``SingularTheta``) even
    for no error points, which return an empty array and run no kernel.
    Only the final state from |2> is needed, so each point's 2N half-step
    exponentials are multiplied into one matrix (``dynamics._cf4_products``)
    and its |2> column read off.  The points are batched, but every
    operation is elementwise over them, so a point's value does not depend
    on which batch, or which sweep, it was computed in.

    F is exactly even in delta (see the ``sweeps`` module docstring), and
    |delta| is exactly delta or -delta, so only the distinct pairs
    (alpha, |delta|) are propagated and their values copied back to the
    points; pairs that are not exact negatives are propagated twice.  Zeros of
    either sign give the same value, so they count as one.

    Raises ``ValueError`` if an error amplitude is not finite, and if a value
    is not finite: finite Hamiltonian entries can still overflow
    r^2 = 2 W^2 + Q^2 + delta^2 in the step propagators.
    """
    w, q, taus = _cf4_exponents(schedule_hamiltonian(schedule, Handedness.LEFT, clamp),
                                schedule.grid(steps, clamp))
    alphas, deltas = (np.ravel(x) for x in np.broadcast_arrays(
        np.asarray(alphas, dtype=float), np.asarray(deltas, dtype=float)))
    if not (np.isfinite(alphas).all() and np.isfinite(deltas).all()):
        raise ValueError("error amplitudes must be finite")
    if not alphas.size:
        return np.empty(0)
    pairs = np.empty(len(alphas), dtype=complex)
    pairs.real, pairs.imag = alphas, np.abs(deltas)
    pairs, inverse = np.unique(pairs, return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite value is rejected next
        total = _cf4_products(w, q, taus, pairs.real, pairs.imag)
        values = (np.abs(total[Handedness.LEFT.target_level - 1, 1]) ** 2)[inverse]
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(f"exact fidelity is {values[k]} at alpha = {alphas[k]:g}, "
                         f"delta = {deltas[k]:g}: the step propagators overflowed "
                         "(Hamiltonian entries too large to exponentiate)")
    return values


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


def optimize_n(kind: str, n_range: tuple[float, float], tolerance: float,
               duration: float) -> OptimumResult:
    """Minimize q_alpha(n) or q_delta(n) over the phase-ansatz family.

    A COARSE_POINTS grid scan brackets the minimum; golden-section search
    refines it to |delta n| < tolerance.  ``ValueError`` is raised when the
    range is empty or its width is not finite, or when a q is not finite
    (``q_alpha`` and ``q_delta`` reject it), and ``NoInteriorMinimum`` when the
    coarse minimum sits on the range boundary.
    """
    measure = {"systematic": q_alpha, "detuning": q_delta}.get(kind)
    if measure is None:
        raise ValueError(f"unknown sensitivity kind {kind!r}")
    lo, hi = float(n_range[0]), float(n_range[1])
    if not (lo < hi and np.isfinite(hi - lo)):     # a finite width has finite bounds
        raise ValueError(f"invalid n range {n_range}: it must be non-empty "
                         "with a finite width")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")

    def objective(n: float) -> float:
        return measure(ansatz_schedule(n, duration))

    grid = np.linspace(lo, hi, COARSE_POINTS)
    values = np.array([objective(n) for n in grid])
    imin = int(np.argmin(values))
    if imin in (0, len(grid) - 1):
        raise NoInteriorMinimum(
            f"q_{kind} attains its minimum at the n-range boundary {grid[imin]:g}; "
            "widen the range"
        )
    n_star = golden_section(objective, grid[imin - 1], grid[imin + 1], tolerance)
    return OptimumResult(kind=kind, n_star=float(n_star), q_min=float(objective(n_star)))
