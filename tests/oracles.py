"""Reference implementations that the tests compare the library against.

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

from chiralpulse import Handedness, InvariantSchedule, hamiltonian_stack
from chiralpulse.quadrature import complex_quad


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
