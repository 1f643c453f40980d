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
* ``invariant_eigensystem``: closed-form eigenpairs of the invariant
  I(phi, theta), checked against ``invariant_matrix`` and used to follow the
  transported channels through exact propagation;
* ``lr_phase``: the +channel phase by quadrature of its defining integral,
  computed from theta_of independently of the schedule's closed-form
  ``eta_plus_of``.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from chiralpulse import Handedness, InvariantSchedule
from chiralpulse.quadrature import complex_quad

SWAP_1_3 = np.eye(3)[::-1]      # P, the swap of levels 1 and 3


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
        theta = schedule.theta_of(t)
        st, ct = np.sin(theta), np.cos(theta)
        return (schedule.phi_dot_of(t) * (st + ct)
                / ((ct - st) * np.sin(schedule.phi_of(t))))

    def eta_plus(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        values = np.array([complex_quad(integrand, anchor, tk).real for tk in ts])
        return values if np.ndim(t) else float(values[0])

    def eta_zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return LRPhase(eta_plus=eta_plus, eta_zero=eta_zero, anchor_time=anchor)
