"""Reference implementations that the tests compare the library against.

* ``hamiltonian_stack``, ``invariant_matrix`` and ``invariant_matrix_dot``:
  plain (N,3,3) builders of the cyclic Hamiltonian, the invariant I(phi,
  theta) and its time derivative, which the library describes only through
  real components;
* ``invariant_residual``: dI/dt + (1/i)[I, H] by matrix products, the
  reference for ``validate_schedule``'s three real components;
* ``perturbed_hamiltonian``: the Hamiltonian stack with the error terms of
  the sweeps, (1 + alpha) H + delta (|3><3| - |1><1|), whose exponentials
  the propagators write without forming the matrix;
* ``right_exact_fidelities``: the right-handed |1> populations of a
  right-handed propagation, point by point with its signed delta, the
  reference for the one (left-handed) fidelity of ``exact_fidelities``;
* ``invariant_eigensystem``: closed-form eigenpairs of the invariant
  I(phi, theta), checked against ``invariant_matrix`` and used to follow the
  transported channels through exact propagation;
* ``lr_phase``: the +channel phase by quadrature of its defining integral,
  computed from the sampled theta independently of the schedule's
  closed-form ``eta_plus_of``;
* ``doubling_quad``: the composite Gauss-Legendre rule with one integrand
  call per panel count, the reference for ``complex_quad``, which evaluates
  its first five panel counts in one call;
* ``reference_schedule``: the schedule families as six per-quantity
  closures, each evaluating its own sines and cosines, with the pulses
  (``reference_pulses``), the validation report (``reference_validation``)
  and the sensitivities (``reference_q``) computed from them; the library's
  one-pass ``InvariantSchedule.sample`` must match them bit for bit.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from chiralpulse import (Handedness, InvariantSchedule, PulseSchedule, ValidationReport,
                         schedule_hamiltonian)
from chiralpulse.dynamics import _cf4_exponents, _cf4_products
from chiralpulse.errors import QuadratureFailure, SingularTheta
from chiralpulse.invariants import (CLAMP_WINDOW_FRACTION, SINGULAR_TOL, VALIDATION_SAMPLES,
                                    CheckResult, _clamp_omega_q)
from chiralpulse.quadrature import ABS_TOL, MAX_PANELS, REL_TOL, complex_quad

SWAP_1_3 = np.eye(3)[::-1]      # P, the swap of levels 1 and 3
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)    # of ``doubling_quad``


def hamiltonian_stack(omega, omega_q, sign: int) -> np.ndarray:
    """(N,3,3) stack of the cyclic Hamiltonian from pulse samples.

    H = [[0, Omega, -s*i*Omega_q], [Omega, 0, Omega], [s*i*Omega_q, Omega, 0]]
    with Omega = omega[k], Omega_q = omega_q[k] and `sign` =
    ``Handedness.coupling_sign`` = -s.
    """
    omega = np.asarray(omega, dtype=float)
    omega_q = np.asarray(omega_q, dtype=float)
    h = np.zeros((len(omega), 3, 3), dtype=complex)
    h[:, 0, 1] = h[:, 1, 0] = omega
    h[:, 1, 2] = h[:, 2, 1] = omega
    h[:, 0, 2] = sign * 1j * omega_q
    h[:, 2, 0] = -sign * 1j * omega_q
    return h


def _mirrored(m: np.ndarray, handedness: Handedness) -> np.ndarray:
    """`m` for LEFT; P m P for RIGHT."""
    return SWAP_1_3 @ m @ SWAP_1_3 if handedness is Handedness.RIGHT else m


def invariant_matrix(handedness: Handedness, phi, theta) -> np.ndarray:
    """(..., 3, 3) invariant I(phi, theta), broadcast over the angles.

    The right-handed invariant is the left one with levels 1 and 3 swapped.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    m = np.zeros(np.broadcast_shapes(phi.shape, theta.shape) + (3, 3), dtype=complex)
    m[..., 0, 1] = m[..., 1, 0] = sp * st
    m[..., 1, 2] = m[..., 2, 1] = sp * ct
    m[..., 0, 2] = -1j * cp
    m[..., 2, 0] = 1j * cp
    return _mirrored(m, handedness)


def invariant_matrix_dot(handedness: Handedness, phi, theta, phi_dot, theta_dot) -> np.ndarray:
    """Entrywise time derivative of ``invariant_matrix`` along (phi(t), theta(t))."""
    phi, theta = np.asarray(phi, float), np.asarray(theta, float)
    pd, td = np.asarray(phi_dot, float), np.asarray(theta_dot, float)
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    shape = np.broadcast_shapes(phi.shape, theta.shape, pd.shape, td.shape)
    m = np.zeros(shape + (3, 3), dtype=complex)
    m[..., 0, 1] = m[..., 1, 0] = pd * cp * st + td * sp * ct     # d/dt sin(phi) sin(theta)
    m[..., 1, 2] = m[..., 2, 1] = pd * cp * ct - td * sp * st     # d/dt sin(phi) cos(theta)
    d_c = -pd * sp                                                # d/dt cos(phi)
    m[..., 0, 2] = -1j * d_c
    m[..., 2, 0] = 1j * d_c
    return _mirrored(m, handedness)


def invariant_residual(handedness: Handedness, omega, omega_q, phi, theta,
                       phi_dot, theta_dot) -> np.ndarray:
    """(N,3,3) dI/dt + (1/i)[I, H] at N samples of pulses and angles, by ``@``."""
    ham = hamiltonian_stack(omega, omega_q, handedness.coupling_sign)
    inv = invariant_matrix(handedness, phi, theta)
    inv_dot = invariant_matrix_dot(handedness, phi, theta, phi_dot, theta_dot)
    return inv_dot - 1j * (inv @ ham - ham @ inv)


def perturbed_hamiltonian(omega, omega_q, sign: int, alpha: float = 0.0,
                          delta: float = 0.0) -> np.ndarray:
    """(N,3,3) stack of (1 + alpha) * H + delta * (|3><3| - |1><1|) from pulse samples.

    H is ``hamiltonian_stack(omega, omega_q, sign)``; alpha is the systematic
    amplitude error and delta the detuning, in the units of the pulses.
    """
    h = (1.0 + alpha) * hamiltonian_stack(omega, omega_q, sign)
    h[:, 0, 0] -= delta
    h[:, 2, 2] += delta
    return h


def right_exact_fidelities(schedule: InvariantSchedule, alphas, deltas, steps: int,
                           clamp: float) -> np.ndarray:
    """|1> populations from |2> of the right-handed system, one per error point.

    The pulses, grid (``InvariantSchedule.grid``) and kernel are those of
    ``exact_fidelities``, but the couplings are the right-handed ones
    (``Handedness.RIGHT``) and every point is propagated at its own signed
    delta, with no fold onto |delta|.
    """
    w, q, taus = _cf4_exponents(schedule_hamiltonian(schedule, Handedness.RIGHT, clamp),
                                schedule.grid(steps, clamp))
    alphas, deltas = (np.ravel(x) for x in np.broadcast_arrays(
        np.asarray(alphas, dtype=float), np.asarray(deltas, dtype=float)))
    total = _cf4_products(w, q, taus, alphas, deltas)
    return np.abs(total[0, 1]) ** 2         # level |1>, from the |2> column


def doubling_quad(f, a: float, b: float) -> complex:
    """``complex_quad`` with one call of `f` per panel count: 1, 2, 4, ... MAX_PANELS."""
    if a == b:
        return 0j
    previous, panels = np.nan, 1
    while panels <= MAX_PANELS:
        edges = np.linspace(a, b, panels + 1)
        halves = 0.5 * (edges[1:] - edges[:-1])
        values = f(0.5 * (edges[:-1] + edges[1:])[:, None] + halves[:, None] * GAUSS_NODES)
        current = complex(np.sum((values @ GAUSS_WEIGHTS) * halves))
        change = np.abs(current - previous)
        if change <= max(ABS_TOL, REL_TOL * np.abs(current)):
            return current
        previous, panels = current, 2 * panels
    raise QuadratureFailure(f"quadrature on [{a:.6g}, {b:.6g}] did not converge in "
                            f"{MAX_PANELS} panels (last change {change:.3g})")


def invariant_eigensystem(handedness: Handedness, phi, theta):
    """Closed-form eigenpairs of the invariant, ordered (0, +1, -1).

    Returns a tuple of (eigenvalue, eigenvector) pairs; eigenvectors broadcast
    over array-valued angles with the component axis last, are normalized, and
    are mutually orthogonal.  The right-handed eigenvectors are the left ones
    with components 1 and 3 swapped, P v.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(phi.shape, theta.shape)
    sp, cp = np.broadcast_to(np.sin(phi), shape), np.broadcast_to(np.cos(phi), shape)
    st, ct = np.broadcast_to(np.sin(theta), shape), np.broadcast_to(np.cos(theta), shape)
    r = 1.0 / np.sqrt(2.0)
    v0 = np.stack([-sp * ct, 1j * cp, sp * st], axis=-1)
    vp = r * np.stack([cp * ct + 1j * st, 1j * sp, -cp * st + 1j * ct], axis=-1)
    vm = r * np.stack([cp * ct - 1j * st, 1j * sp, -cp * st - 1j * ct], axis=-1)
    if handedness is Handedness.RIGHT:
        v0, vp, vm = v0[..., ::-1], vp[..., ::-1], vm[..., ::-1]
    return ((0.0, v0), (1.0, vp), (-1.0, vm))


@dataclass(frozen=True, eq=False)
class LRPhase:
    """Accumulated channel phases: eta_plus(t) by quadrature, eta_zero = 0."""

    eta_plus: Callable
    eta_zero: Callable
    anchor_time: float


def lr_phase(schedule: InvariantSchedule) -> LRPhase:
    """Evaluate the +channel phase by composite Gauss-Legendre quadrature from the anchor to t.

    The integrand is computed trigonometrically from theta_of, independently of
    the schedule's closed-form phase, so comparing the two is a meaningful
    consistency check.  Integration anchors where the closed forms do: at
    t = 0 for the ansatz, whose integrand is integrable there, and at t = T
    for sps, whose integrand behaves like 1/t at t = 0 (the resulting
    additive constant is a pure gauge choice, invisible to any |integral|^2).
    """
    anchor = schedule.duration if schedule.kind == "sps" else 0.0

    def integrand(t):
        s = schedule.sample(t)
        st, ct = np.sin(s.theta), np.cos(s.theta)
        return s.phi_dot * (st + ct) / ((ct - st) * s.sin_phi)

    def eta_plus(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        values = np.array([complex_quad(integrand, anchor, tk).real for tk in ts])
        return values if np.ndim(t) else float(values[0])

    def eta_zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return LRPhase(eta_plus=eta_plus, eta_zero=eta_zero, anchor_time=anchor)


@dataclass(frozen=True, eq=False)
class ReferenceSchedule:
    """A schedule family as six per-quantity closures of t."""

    kind: str
    n: float | None
    duration: float
    phi_of: Callable
    phi_dot_of: Callable
    theta_of: Callable
    theta_dot_of: Callable
    coupling_factor_of: Callable
    eta_plus_of: Callable


def reference_schedule(kind: str, duration: float, n: float | None = None) -> ReferenceSchedule:
    """The closures of ``sps_schedule`` ("sps") or ``ansatz_schedule`` ("ansatz", n)."""
    T = float(duration)
    rate = np.pi / (2.0 * T)

    def phi_of(t):
        return rate * np.asarray(t, dtype=float)

    def phi_dot_of(t):
        return np.full_like(np.asarray(t, dtype=float), rate)

    if kind == "sps":
        def theta_of(t):
            return np.full_like(np.asarray(t, dtype=float), np.pi / 2)

        def theta_dot_of(t):
            return np.zeros_like(np.asarray(t, dtype=float))

        def coupling_factor_of(t):
            with np.errstate(divide="ignore"):
                return 1.0 / np.sin(phi_of(t))

        def eta_plus_of(t):
            with np.errstate(divide="ignore"):
                return -np.log(np.tan(0.5 * phi_of(t)))

        return ReferenceSchedule(kind, None, T, phi_of, phi_dot_of, theta_of, theta_dot_of,
                                 coupling_factor_of, eta_plus_of)

    n = float(n)

    def _x(p):
        return np.sin(p) * (3.0 * n * np.cos(3.0 * p) + 1.0)

    def _x_prime(p):
        return (np.cos(p) * (3.0 * n * np.cos(3.0 * p) + 1.0)
                - 9.0 * n * np.sin(p) * np.sin(3.0 * p))

    def theta_of(t):
        x = _x(phi_of(t))
        return np.arctan2(1.0, (x - 1.0) / (x + 1.0)) + np.where(x < -1.0, np.pi, 0.0)

    def theta_dot_of(t):
        p = phi_of(t)
        x = _x(p)
        return -rate * _x_prime(p) / (x * x + 1.0)

    def coupling_factor_of(t):
        return 3.0 * n * np.cos(3.0 * phi_of(t)) + 1.0

    def eta_plus_of(t):
        p = phi_of(t)
        return -(n * np.sin(3.0 * p) + p)

    return ReferenceSchedule(kind, n, T, phi_of, phi_dot_of, theta_of, theta_dot_of,
                             coupling_factor_of, eta_plus_of)


def _reference_raw_pulses(ref: ReferenceSchedule, t):
    theta = ref.theta_of(t)
    pd = ref.phi_dot_of(t)
    omega = pd / (np.sin(theta) - np.cos(theta))
    with np.errstate(invalid="ignore", over="ignore"):
        omega_q = pd * np.cos(ref.phi_of(t)) * ref.coupling_factor_of(t) - ref.theta_dot_of(t)
    return omega, omega_q


def reference_pulses(ref: ReferenceSchedule, grid, clamp: float) -> PulseSchedule:
    """Clamped pulses on `grid`, after a separate singularity pass over its t > 0."""
    grid = np.asarray(grid, dtype=float)
    interior = grid[grid > 0]
    theta = ref.theta_of(interior)
    gap = np.abs(np.sin(theta) - np.cos(theta))
    if np.any(gap < SINGULAR_TOL):
        raise SingularTheta(f"sin(theta) - cos(theta) = {gap.min():.3e}")
    omega, omega_q = _reference_raw_pulses(ref, grid)
    omega_q = _clamp_omega_q(omega_q, grid, ref.duration, clamp)
    return PulseSchedule(times=grid, omega=omega, omega_q=omega_q, duration=ref.duration,
                         clamp_value=clamp, kind=ref.kind, n=ref.n)


def reference_validation(ref: ReferenceSchedule, clamp: float) -> str:
    """``validate_schedule``'s report text, each quantity evaluated by its closure.

    The invariant residual is the matrix one (``invariant_residual``).  Samples
    whose Omega or Omega_q is not finite, or whose Omega_q exceeds the clamp,
    are skipped; on a real schedule none is NaN, so this keeps the samples
    that the library's check keeps.
    """
    T = ref.duration
    phi0 = float(np.abs(ref.phi_of(0.0)))
    phiT = float(np.abs(ref.phi_of(T) - np.pi / 2))
    thetaT = float(np.abs(ref.theta_of(T) - np.pi / 2))
    worst = float(np.max([phi0, phiT, thetaT]))
    checks = [CheckResult("boundary conditions", worst <= 1e-12, worst, 1e-12,
                          "phi(0)=0, phi(T)=pi/2, theta(T)=pi/2")]
    theta = ref.theta_of(np.linspace(0.0, T, VALIDATION_SAMPLES + 1)[1:])
    gap = float(np.min(np.abs(np.sin(theta) - np.cos(theta))))
    checks.append(CheckResult("theta singularity gap", gap >= SINGULAR_TOL, gap,
                              SINGULAR_TOL, "min |sin(theta)-cos(theta)| on (0,T]"))
    t_mid = np.linspace(0.05 * T, 0.95 * T, VALIDATION_SAMPLES)
    h = 1e-6 * T
    relative = []
    for f, fdot in ((ref.phi_of, ref.phi_dot_of), (ref.theta_of, ref.theta_dot_of)):
        fd = (f(t_mid + h) - f(t_mid - h)) / (2 * h)
        an = fdot(t_mid)
        scale = max(float(np.max(np.abs(an))), 1.0 / T)
        relative.append(float(np.max(np.abs(fd - an))) / scale)
    worst = float(np.max(relative))
    checks.append(CheckResult("derivative consistency", worst <= 1e-6, worst, 1e-6,
                              "finite difference vs analytic, relative"))
    window = CLAMP_WINDOW_FRACTION * T
    t_in = np.linspace(window, T - window, VALIDATION_SAMPLES)
    omega, omega_q = _reference_raw_pulses(ref, t_in)
    keep = np.isfinite(omega) & np.isfinite(omega_q) & (np.abs(omega_q) <= clamp)
    t_in, omega, omega_q = t_in[keep], omega[keep], omega_q[keep]
    residual = invariant_residual(Handedness.LEFT, omega, omega_q, ref.phi_of(t_in),
                                  ref.theta_of(t_in), ref.phi_dot_of(t_in),
                                  ref.theta_dot_of(t_in))
    worst = T * float(np.max(np.abs(residual)))
    checks.append(CheckResult("dynamical invariant", worst <= 1e-8, worst, 1e-8,
                              "T*(dI/dt + (1/i)[I,H]) on unclamped interior"))
    describe = {"kind": ref.kind, "T": T} | ({} if ref.n is None else {"n": ref.n})
    return ValidationReport(schedule=describe, checks=tuple(checks)).to_text()


def reference_q(ref: ReferenceSchedule, which: str) -> float:
    """q_alpha ("alpha") or q_delta ("delta"), the integrand built from the closures.

    The amplitudes are integrals over u = t/T in [0, 1], T-free, and the
    q_delta one is multiplied by T, as the library defines them.
    """
    T = ref.duration
    if ref.kind == "sps":
        if which == "alpha":
            amplitude = 1j * complex_quad(lambda u: np.exp(1j * u) / np.cosh(u), 0.0, 40.0)
        else:
            amplitude = (-4.0 / np.pi) * complex_quad(
                lambda u: np.tanh(u) * np.exp(1j * u) / np.cosh(u) ** 2, 0.0, 40.0)
    else:
        def integrand(u):
            t = T * u
            phase = np.exp(1j * ref.eta_plus_of(t))
            phi = ref.phi_of(t)
            if which == "alpha":
                envelope = (T * ref.theta_dot_of(t)) * np.sin(phi) + 1j * (T * ref.phi_dot_of(t))
            else:
                theta = ref.theta_of(t)
                envelope = (np.cos(2 * theta) * np.sin(2 * phi)
                            + 2j * np.sin(2 * theta) * np.sin(phi))
            return envelope * phase

        amplitude = complex_quad(integrand, 0.0, 1.0)
    if which == "delta":
        amplitude = amplitude * T
    return float(np.abs(amplitude) ** 2)
