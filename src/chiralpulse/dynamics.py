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
exponential of the midpoint-sampled Hamiltonian, computed by eigendecomposition
of the (Hermitian) 3x3 matrix.  The per-step propagator is therefore unitary by
construction and the state norm is preserved structurally, not by tolerance.
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
    directly; scalar callables are looped.
    """
    try:
        stack = np.asarray(hamiltonian_at(times), dtype=complex)
        if stack.shape == (len(times), 3, 3):
            return stack
    except Exception:
        pass
    stack = np.empty((len(times), 3, 3), dtype=complex)
    for k, t in enumerate(times):
        stack[k] = np.asarray(hamiltonian_at(float(t)), dtype=complex)
    return stack


def _propagate_states(stack: np.ndarray, dts: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """Apply exp(-i*H_k*dt_k) step by step; returns all states incl. the initial one."""
    w, v = np.linalg.eigh(stack)
    phases = np.exp(-1j * w * dts[:, None])
    # U_k = V_k diag(phases_k) V_k^dagger
    props = np.einsum("kij,kj,klj->kil", v, phases, v.conj())
    out = np.empty((len(stack) + 1, 3), dtype=complex)
    out[0] = psi0
    psi = psi0
    for k in range(len(props)):
        psi = props[k] @ psi
        out[k + 1] = psi
    return out


def propagate(
    hamiltonian_at: Callable,
    initial: QuantumState | np.ndarray,
    grid: np.ndarray,
    check: bool = False,
) -> Trajectory:
    """Solve i d|psi>/dt = H(t)|psi> on `grid` by the midpoint-exponential rule.

    Each step advances the state with the exact 3x3 matrix exponential of the
    Hamiltonian sampled at the interval midpoint, so every step is unitary.

    Parameters
    ----------
    hamiltonian_at : callable
        Maps a time (scalar, or array for vectorized callables) to a 3x3
        Hermitian matrix (or (N,3,3) stack).
    initial : QuantumState or complex 3-vector
    grid : strictly increasing time samples covering the evolution window
    check : bool
        When True, re-propagate with every step halved and raise
        ``GridTooCoarse`` if any final population moves by more than 1e-8.

    Raises
    ------
    NonFiniteHamiltonian
        if any sampled entry is NaN or infinite.
    GridTooCoarse
        see `check`.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a strictly increasing 1-D array of times")
    psi0 = np.asarray(initial, dtype=complex)
    mids = 0.5 * (grid[:-1] + grid[1:])
    stack = _sample_hamiltonian(hamiltonian_at, mids)
    if not np.all(np.isfinite(stack.view(float))):
        bad = int(np.flatnonzero(~np.isfinite(stack.view(float)))[0] // 18)
        raise NonFiniteHamiltonian(
            f"Hamiltonian sample at t={mids[bad]:.6g} has non-finite entries "
            "(unclamped pulse singularity?)"
        )
    states = _propagate_states(stack, np.diff(grid), psi0)
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
