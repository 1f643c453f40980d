"""Three-level states, cyclic Hamiltonians, and exact Schrodinger propagation.

Conventions (hbar = 1 throughout):

* basis states are labelled |1>, |2>, |3> (1-indexed, matching the level
  diagram of the cyclic system);
* all frequencies are angular frequencies in units of 1/T, where T is the
  pulse duration, and times are reported as t/T in outputs;
* the cyclic Hamiltonian couples 1-2 and 2-3 with a common real Rabi
  frequency Omega and closes the loop through a 1-3 coupling of magnitude
  Omega_q whose phase gamma = pi/2 carries the handedness sign:

      H = [[0,        Omega, -s*i*Omega_q],
           [Omega,    0,      Omega      ],
           [s*i*Omega_q, Omega, 0        ]]

  with s = +1 for left-handed and s = -1 for right-handed molecules, i.e.
  the two enantiomers see the same pulses but an opposite-sign loop phase.

``hamiltonian_stack`` is the one assembly of this matrix, error terms
included: every Hamiltonian the package propagates or checks is built there
from sampled (Omega, Omega_q).

Propagation is piecewise-exponential: each step applies the exact matrix
exponential of the midpoint-sampled Hamiltonian, so every step is unitary and
the state norm is preserved structurally, not by tolerance.  One routine,
``step_propagators``, computes that exponential, in closed form.  It is exact
for a Hermitian, traceless H with det H = 0 (spectrum exactly {-r, 0, r}),
which every ``hamiltonian_stack`` output is:

* ``propagate`` samples a Hamiltonian callable, rejects samples that break
  that precondition, and advances the state through the step propagators,
  returning every intermediate state;
* exact fidelities need only the final state, so ``ordered_product``
  multiplies the steps by pairwise reduction.

Both routines do their 3x3 arithmetic component-major, on (3,3,N) arrays
whose trailing axis runs over the steps: one 3x3 product of N pairs is then
27 elementwise products of length-N vectors.  ``np.matmul`` on an (N,3,3)
stack instead makes one small-matrix call per step, about 300 ns each, which
was two thirds of the cost of an exact fidelity.  The public shapes stay
(N,3,3); ``step_propagators`` returns a transposed view of its (3,3,N) result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import GridTooCoarse, NonFiniteHamiltonian

NORM_TOL = 1e-12


class Handedness(Enum):
    """Molecular handedness; fixes the sign of the 1-3 loop coupling."""

    LEFT = "left"
    RIGHT = "right"

    @property
    def coupling_sign(self) -> int:
        """Sign of the +i*Omega_q entry at position (3,1): -+1 for left/right."""
        return -1 if self is Handedness.LEFT else +1

    @property
    def target_level(self) -> int:
        """Level (1-indexed) that receives the full population from |2>."""
        return 3 if self is Handedness.LEFT else 1

    @classmethod
    def parse(cls, text: str) -> "Handedness":
        key = text.strip().lower()
        for h in cls:
            if h.value == key or h.value[0] == key:
                return h
        raise ValueError(f"unknown handedness {text!r} (use 'left' or 'right')")


def basis_state(level: int) -> np.ndarray:
    """Return the basis ket |level> for level in {1, 2, 3}."""
    if level not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2 or 3, got {level}")
    v = np.zeros(3, dtype=complex)
    v[level - 1] = 1.0
    return v


@dataclass(frozen=True)
class QuantumState:
    """Normalized complex amplitude vector over {|1>, |2>, |3>}."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (3,):
            raise ValueError(f"state must be a complex 3-vector, got shape {amps.shape}")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 deviates from 1 by {abs(norm2 - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, level: int) -> "QuantumState":
        return cls(basis_state(level))

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __array__(self, dtype=None):
        return self.amplitudes if dtype is None else self.amplitudes.astype(dtype)


def hamiltonian_stack(omega, omega_q, sign: int, alpha: float = 0.0,
                      delta: float = 0.0) -> np.ndarray:
    """(N,3,3) stack of (1 + alpha) * H + delta * (|3><3| - |1><1|) from pulse samples.

    H is the cyclic Hamiltonian of the module docstring with Omega = omega[k]
    and Omega_q = omega_q[k]; `sign` is ``Handedness.coupling_sign`` (-s).
    alpha is the systematic amplitude error and delta the detuning, in the
    units of the pulses.  This is the only place the matrix entries are written.
    """
    omega = np.asarray(omega, dtype=float)
    omega_q = np.asarray(omega_q, dtype=float)
    out = np.zeros((len(omega), 3, 3), dtype=complex)
    out[:, 0, 1] = out[:, 1, 0] = omega
    out[:, 1, 2] = out[:, 2, 1] = omega
    out[:, 0, 2] = sign * 1j * omega_q
    out[:, 2, 0] = -sign * 1j * omega_q
    out *= 1.0 + alpha
    out[:, 0, 0] -= delta
    out[:, 2, 2] += delta
    return out


def make_grid(duration: float, steps: int = 4000) -> np.ndarray:
    """Uniform time grid with `steps` intervals on [0, duration]."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return np.linspace(0.0, duration, steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """Time grid with per-step state vectors and level populations."""

    times: np.ndarray
    states: np.ndarray          # (len(times), 3) complex
    populations: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "populations", np.abs(self.states) ** 2)

    @property
    def final_state(self) -> QuantumState:
        return QuantumState(self.states[-1])

    @property
    def final_populations(self) -> np.ndarray:
        return self.populations[-1]

    def norm_deviation(self) -> float:
        """Worst deviation of the state norm from 1 along the trajectory."""
        return float(np.max(np.abs(np.sum(self.populations, axis=1) - 1.0)))


def _sample_hamiltonian(hamiltonian_at: Callable, times: np.ndarray) -> np.ndarray:
    """Evaluate a Hamiltonian callable on an array of times as an (N,3,3) stack.

    Vectorized callables (returning (N,3,3) for an (N,) argument) are used
    directly; scalar callables are looped.  A scalar-only callable given an
    array raises ``TypeError`` or ``ValueError``; any other exception, package
    errors included, propagates without re-sampling.
    """
    try:
        stack = np.asarray(hamiltonian_at(times), dtype=complex)
        if stack.shape == (len(times), 3, 3):
            return stack
    except (TypeError, ValueError):
        pass
    stack = np.empty((len(times), 3, 3), dtype=complex)
    for k, t in enumerate(times):
        stack[k] = np.asarray(hamiltonian_at(float(t)), dtype=complex)
    return stack


def _mul3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-step products a_k b_k of two (3,3,N) component-major stacks."""
    return a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1] + a[:, 2, None] * b[None, 2]


def _radius(h: np.ndarray) -> np.ndarray:
    """r = sqrt(sum |H_ij|^2 / 2) per step of a (3,3,N) component-major stack."""
    return np.sqrt(0.5 * np.sum(h.real ** 2 + h.imag ** 2, axis=(0, 1)))


def _exp_steps(h: np.ndarray, r: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """(3,3,N) exp(-i*H_k*dt_k) from a (3,3,N) stack and its radii; see ``step_propagators``."""
    sin_r = dts * np.sinc(r * dts / np.pi)
    one_minus_cos_r2 = 0.5 * (dts * np.sinc(r * dts / (2.0 * np.pi))) ** 2
    props = _mul3(h, h)  # built in place: fewer (3,3,N) temporaries to allocate
    props *= -one_minus_cos_r2
    props -= 1j * sin_r * h
    for i in range(3):
        props[i, i] += 1.0
    return props


def step_propagators(stack: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """(N,3,3) stack of exp(-i*H_k*dt_k) in closed form, for ``hamiltonian_stack`` output.

    Such an H = (1 + alpha) H0 + delta * diag(-1, 0, 1) has equal real 1-2
    and 2-3 couplings w and an imaginary 1-3 coupling +-i*q.  It is traceless,
    and det H = 2 Re(H12 H23 H31) + delta * w^2 - delta * w^2 = 0 because
    H12 H23 H31 = w^2 * (+-i*q) is imaginary.  Its characteristic polynomial is
    therefore lambda^3 - r^2 lambda with r^2 = tr(H^2)/2 = 2 w^2 + q^2 + delta^2,
    the spectrum is exactly {-r, 0, r}, and H^3 = r^2 H gives

        exp(-i*H*dt) = I - i*sin(r*dt)/r * H + (cos(r*dt) - 1)/r^2 * H^2.

    Both coefficients are written with sinc, dt*sinc(r*dt/pi) = sin(r*dt)/r
    and (dt*sinc(r*dt/2pi))^2 / 2 = (1 - cos(r*dt))/r^2, so r = 0 gives the
    identity with no branch.  The identity holds for every Hamiltonian
    ``hamiltonian_stack`` builds, which is every Hamiltonian the package
    builds; ``propagate`` checks it for callables from outside.

    The arithmetic runs component-major, on one (3,3,N) copy of the stack:
    ``np.matmul`` on an (N,3,3) stack makes one small-matrix call per step,
    while each entry of H^2 is three products of length-N vectors.  The
    result is a transposed view of that (3,3,N) array.
    """
    h = np.ascontiguousarray(np.moveaxis(stack, 0, -1))
    return np.moveaxis(_exp_steps(h, _radius(h), dts), -1, 0)


def ordered_product(props: np.ndarray) -> np.ndarray:
    """U_{N-1} ... U_1 U_0 of an (N,3,3) stack, by pairwise (tree) reduction.

    Each level multiplies neighbours (U_{2j+1} U_{2j}) for all pairs at once;
    an odd trailing factor is folded in on the left of the last pair.  Like
    ``step_propagators`` it works component-major, on a (3,3,N) array (no
    copy for ``step_propagators`` output), so a level is 27 vector products
    rather than one small-matrix call per pair.
    """
    p = np.ascontiguousarray(np.moveaxis(props, 0, -1))
    while p.shape[-1] > 1:
        n = p.shape[-1]
        paired = _mul3(p[..., 1::2], p[..., :n - 1:2])
        if n % 2:
            paired[..., -1:] = _mul3(p[..., -1:], paired[..., -1:])
        p = paired
    return p[..., 0]


def propagate(
    hamiltonian_at: Callable,
    initial: QuantumState | np.ndarray,
    grid: np.ndarray,
    check: bool = False,
) -> Trajectory:
    """Solve i d|psi>/dt = H(t)|psi> on `grid` by the midpoint-exponential rule.

    Each step advances the state with the exact 3x3 matrix exponential of the
    Hamiltonian sampled at the interval midpoint, computed by the closed form
    of ``step_propagators``, so every step is unitary.

    Parameters
    ----------
    hamiltonian_at : callable
        Maps a time (scalar, or array for vectorized callables) to a 3x3
        matrix (or (N,3,3) stack) that is Hermitian, traceless and singular
        (det H = 0), as every ``hamiltonian_stack`` output and every
        ``schedule_hamiltonian`` callable is.
    initial : QuantumState or complex 3-vector
    grid : strictly increasing time samples covering the evolution window
    check : bool
        When True, re-propagate with every step halved and raise
        ``GridTooCoarse`` if any final population moves by more than 1e-8.

    Returns
    -------
    Trajectory
        the state at every grid time, the initial state included.

    Raises
    ------
    NonFiniteHamiltonian
        if any sampled entry is NaN or infinite.
    ValueError
        naming the first sample time whose Hamiltonian is not exactly
        Hermitian, or has |tr H| > 1e-12 r or |det H| > 1e-12 r^3, where
        r^2 = sum |H_ij|^2 / 2; the closed form is exact only when all three hold.
    GridTooCoarse
        see `check`.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a strictly increasing 1-D array of times")
    mids = 0.5 * (grid[:-1] + grid[1:])
    stack = _sample_hamiltonian(hamiltonian_at, mids)
    if not np.all(np.isfinite(stack.view(float))):
        bad = int(np.flatnonzero(~np.isfinite(stack.view(float)))[0] // 18)
        raise NonFiniteHamiltonian(
            f"Hamiltonian sample at t={mids[bad]:.6g} has non-finite entries "
            "(unclamped pulse singularity?)"
        )
    h = np.ascontiguousarray(np.moveaxis(stack, 0, -1))
    r = _radius(h)
    det = (h[0, 0] * (h[1, 1] * h[2, 2] - h[1, 2] * h[2, 1])
           - h[0, 1] * (h[1, 0] * h[2, 2] - h[1, 2] * h[2, 0])
           + h[0, 2] * (h[1, 0] * h[2, 1] - h[1, 1] * h[2, 0]))
    broken = {
        "Hermitian": np.any(h != h.conj().transpose(1, 0, 2), axis=(0, 1)),
        "traceless": np.abs(h[0, 0] + h[1, 1] + h[2, 2]) > 1e-12 * r,
        "singular": np.abs(det) > 1e-12 * r ** 3,
    }
    bad = np.logical_or.reduce(list(broken.values()))
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        missing = " or ".join(name for name, mask in broken.items() if mask[k])
        raise ValueError(
            f"Hamiltonian sample at t={mids[k]:.6g} is not {missing}; the "
            "closed-form step needs a Hermitian, traceless H with det H = 0"
        )
    states = np.empty((len(grid), 3), dtype=complex)
    states[0] = np.asarray(initial, dtype=complex)
    props = np.moveaxis(_exp_steps(h, r, np.diff(grid)), -1, 0)
    for k, step in enumerate(props):
        states[k + 1] = step @ states[k]
    traj = Trajectory(times=grid, states=states)
    if check:
        fine = np.sort(np.concatenate([grid, mids]))
        fine_traj = propagate(hamiltonian_at, initial, fine, check=False)
        drift = float(np.max(np.abs(traj.final_populations - fine_traj.final_populations)))
        if drift > 1e-8:
            raise GridTooCoarse(
                f"final populations move by {drift:.3e} under step halving; refine the grid"
            )
    return traj


def fidelity(target: QuantumState | np.ndarray, actual: QuantumState | np.ndarray) -> float:
    """Squared overlap |<target|actual>|^2 of two normalized states."""
    t = np.asarray(target, dtype=complex)
    a = np.asarray(actual, dtype=complex)
    return float(np.abs(np.vdot(t, a)) ** 2)
