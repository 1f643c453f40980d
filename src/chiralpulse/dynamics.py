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

Propagation uses the fourth-order commutator-free Magnus step CF4 (Blanes &
Moan, Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske, J. Comput.
Phys. 230, 5930 (2011)).  A step of width h samples H at its two Gauss nodes
t + (1/2 -+ sqrt(3)/6) h, giving H1 and H2, and applies two exponentials,
each over h/2: first exp(-i (h/2) 2(a1 H1 + a2 H2)), then
exp(-i (h/2) 2(a2 H1 + a1 H2)), with a1 = 1/4 + sqrt(3)/6 and
a2 = 1/4 - sqrt(3)/6.  The local error is O(h^5), so the global error falls
16-fold when h is halved.  Every factor is an exact matrix exponential, so
every step is unitary and the state norm is preserved structurally, not by
tolerance.  ``hamiltonian_stack`` is affine in (Omega, Omega_q) and the two
weights 2 a1 and 2 a2 sum to 1, so each combined exponent is again a
``hamiltonian_stack`` matrix with the same alpha and delta.  One routine,
``step_propagators``, computes the exponentials, in closed form.  It is exact
for a Hermitian, traceless H with det H = 0 (spectrum exactly {-r, 0, r}),
which every ``hamiltonian_stack`` output is:

* ``gauss_nodes`` gives the 2N interleaved node times of an N-step grid, and
  ``cf4_propagators`` turns the 2N node samples into the 2N exponentials;
* ``propagate`` calls a vectorized Hamiltonian callable once, on the nodes,
  rejects a result that is not a (2N,3,3) stack or whose combined exponents
  break that precondition, and advances the state through the steps,
  returning every intermediate state;
* exact fidelities need only the final state, so ``ordered_product``
  multiplies the 2N half-step exponentials by pairwise reduction.

These routines and the CF4 combination do their 3x3 arithmetic
component-major, on (3,3,N) arrays whose trailing axis runs over the steps: one 3x3 product of N pairs is then
27 elementwise products of length-N vectors.  ``np.matmul`` on an (N,3,3)
stack instead makes one small-matrix call per step, about 300 ns each, which
was two thirds of the cost of an exact fidelity.  The public shapes stay
(N,3,3): ``hamiltonian_stack`` and ``step_propagators`` return transposed
views of (3,3,N) arrays.  ``propagate`` advances its state through the step
propagators with Python complex arithmetic, which is cheaper than one numpy
call per 3x3 mat-vec step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import NonFiniteHamiltonian

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

    def __array__(self, dtype=None):
        return self.amplitudes if dtype is None else self.amplitudes.astype(dtype)


def hamiltonian_stack(omega, omega_q, sign: int, alpha: float = 0.0,
                      delta: float = 0.0) -> np.ndarray:
    """(N,3,3) stack of (1 + alpha) * H + delta * (|3><3| - |1><1|) from pulse samples.

    H is the cyclic Hamiltonian of the module docstring with Omega = omega[k]
    and Omega_q = omega_q[k]; `sign` is ``Handedness.coupling_sign`` (-s).
    alpha is the systematic amplitude error and delta the detuning, in the
    units of the pulses.  This is the only place the matrix entries are written.
    The stack is a transposed view of a component-major (3,3,N) array, which
    the kernels below take without a copy.
    """
    omega = np.asarray(omega, dtype=float)
    omega_q = np.asarray(omega_q, dtype=float)
    out = np.zeros((3, 3, len(omega)), dtype=complex)
    out[0, 1] = out[1, 0] = omega
    out[1, 2] = out[2, 1] = omega
    out[0, 2] = sign * 1j * omega_q
    out[2, 0] = -sign * 1j * omega_q
    out *= 1.0 + alpha
    out[0, 0] -= delta
    out[2, 2] += delta
    return np.moveaxis(out, -1, 0)


DEFAULT_STEPS = 400


def make_grid(duration: float, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Uniform time grid with `steps` intervals on [0, duration]."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return np.linspace(0.0, duration, steps + 1)


_NODE_OFFSET = np.sqrt(3.0) / 6.0     # Gauss nodes sit at 1/2 -+ this, in units of h
_W1 = 0.5 + 2.0 * _NODE_OFFSET         # 2 a1; the other weight 2 a2 is 1 - 2 a1


def gauss_nodes(grid: np.ndarray) -> np.ndarray:
    """(2N,) CF4 sample times of an N-step grid: t_k + (1/2 - sqrt(3)/6) h_k, then + sqrt(3)/6."""
    starts, h = grid[:-1], np.diff(grid)
    nodes = np.empty(2 * len(h))
    nodes[0::2] = starts + (0.5 - _NODE_OFFSET) * h
    nodes[1::2] = starts + (0.5 + _NODE_OFFSET) * h
    return nodes


def _combine(stack: np.ndarray) -> np.ndarray:
    """(3,3,2N) component-major CF4 exponents from (2N,3,3) samples at ``gauss_nodes``.

    Step k's pair (H1, H2) becomes 2(a1 H1 + a2 H2), applied first, and
    2(a2 H1 + a1 H2); each is exponentiated over h_k / 2.  With W = 2 a1 and
    2 a2 = 1 - W these are H2 + W (H1 - H2) and H1 - W (H1 - H2).
    """
    h = _component_major(stack)
    h1, h2 = h[..., 0::2], h[..., 1::2]
    shift = h1 - h2
    shift *= _W1
    out = np.empty(h.shape, dtype=complex)
    np.add(h2, shift, out=out[..., 0::2])
    np.subtract(h1, shift, out=out[..., 1::2])
    return out


def _half_steps(dts: np.ndarray) -> np.ndarray:
    """(2N,) widths of the CF4 exponentials: each step's h_k / 2, twice."""
    return np.repeat(0.5 * np.asarray(dts, dtype=float), 2)


@dataclass(frozen=True)
class Trajectory:
    """Time grid with per-step state vectors and level populations."""

    times: np.ndarray
    states: np.ndarray          # (len(times), 3) complex
    populations: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "populations", np.abs(self.states) ** 2)

    def norm_deviation(self) -> float:
        """Worst deviation of the state norm from 1 along the trajectory."""
        return float(np.max(np.abs(np.sum(self.populations, axis=1) - 1.0)))


def _component_major(stack: np.ndarray) -> np.ndarray:
    """Contiguous (3,3,N) copy of an (N,3,3) stack; no copy if it is already a view of one."""
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1))


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
    h = _component_major(stack)
    return np.moveaxis(_exp_steps(h, _radius(h), dts), -1, 0)


def cf4_propagators(stack: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """(2N,3,3) CF4 exponentials, in the order they act, of the steps `dts`.

    `stack` holds the (2N,3,3) Hamiltonians at ``gauss_nodes``, two per step.
    The combined exponents of a ``hamiltonian_stack`` are ``hamiltonian_stack``
    matrices (the weights 2 a1 and 2 a2 sum to 1), so ``step_propagators``
    exponentiates them, over h_k / 2 each.  Like its output, the result is a
    transposed view of a (3,3,2N) array, which ``ordered_product`` takes
    without a copy.
    """
    return step_propagators(np.moveaxis(_combine(stack), -1, 0), _half_steps(dts))


def ordered_product(props: np.ndarray) -> np.ndarray:
    """U_{N-1} ... U_1 U_0 of an (N,3,3) stack, by pairwise (tree) reduction.

    Each level multiplies neighbours (U_{2j+1} U_{2j}) for all pairs at once;
    an odd trailing factor is folded in on the left of the last pair.  Like
    ``step_propagators`` it works component-major, on a (3,3,N) array (no
    copy for ``step_propagators`` output), so a level is 27 vector products
    rather than one small-matrix call per pair.
    """
    p = _component_major(props)
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
) -> Trajectory:
    """Solve i d|psi>/dt = H(t)|psi> on `grid` by the CF4 step of the module docstring.

    Each step applies the two exact 3x3 exponentials of its combined CF4
    exponents, computed by the closed form of ``step_propagators`` and
    multiplied into one step propagator, so every step is unitary.

    Parameters
    ----------
    hamiltonian_at : callable
        Vectorized: called once with the (2N,) array of ``gauss_nodes`` of the
        N grid steps, it returns the (2N,3,3) stack of Hamiltonians there.
        Their CF4 combinations must be Hermitian, traceless and singular
        (det H = 0), as they are for every ``hamiltonian_stack`` output and
        every ``schedule_hamiltonian`` callable.
    initial : QuantumState or complex 3-vector
    grid : strictly increasing time samples covering the evolution window

    Returns
    -------
    Trajectory
        the state at every grid time, the initial state included.

    Raises
    ------
    NonFiniteHamiltonian
        if any sampled entry is NaN or infinite, or a combined exponent is too
        large for r^2 = sum |H_ij|^2 / 2 to be finite.
    ValueError
        naming the shape the callable returned, if it is not (2N,3,3); or
        naming the midpoint of the first step whose combined exponent is not
        exactly Hermitian, or has |tr H| > 1e-12 r or |det H| > 1e-12 r^3; the
        closed form is exact only when all three hold.  Two valid samples
        can combine into an exponent that is not singular, so the check runs
        on the exponents.  Also naming the first step whose exponential
        overflows (a step so long that h^2 is not finite).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a strictly increasing 1-D array of times")
    nodes = gauss_nodes(grid)
    stack = np.asarray(hamiltonian_at(nodes), dtype=complex)
    if stack.shape != (len(nodes), 3, 3):
        raise ValueError(
            f"Hamiltonian callable returned shape {stack.shape} for {len(nodes)} "
            f"times; propagate needs a vectorized callable returning ({len(nodes)}, 3, 3)"
        )
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteHamiltonian(
            f"Hamiltonian sample at t={nodes[bad]:.6g} has non-finite entries "
            "(unclamped pulse singularity?)"
        )
    dts = np.diff(grid)
    mids = grid[:-1] + 0.5 * dts
    h = _combine(stack)
    with np.errstate(over="ignore"):     # an overflowed r is rejected next
        r = _radius(h)
    if not np.all(np.isfinite(r)):
        k = int(np.flatnonzero(~np.isfinite(r))[0]) // 2
        raise NonFiniteHamiltonian(
            f"Hamiltonian exponent of the step at t={mids[k]:.6g} is too large "
            "to exponentiate (r^2 = sum |H_ij|^2 / 2 overflows)"
        )
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
        j = int(np.flatnonzero(bad)[0])
        missing = " or ".join(name for name, mask in broken.items() if mask[j])
        raise ValueError(
            f"Hamiltonian exponent of the step at t={mids[j // 2]:.6g} is not "
            f"{missing}; the closed-form step needs a Hermitian, traceless H "
            "with det H = 0"
        )
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite step is rejected next
        halves = _exp_steps(h, r, _half_steps(dts))
    finite = np.isfinite(halves).all(axis=(0, 1))
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0]) // 2
        raise ValueError(f"the propagator of the step at t={mids[k]:.6g} is not finite: "
                         "the closed-form exponential overflowed (step too long)")
    props = _mul3(halves[..., 1::2], halves[..., 0::2]).reshape(9, -1).T.tolist()
    a, b, c = np.asarray(initial, dtype=complex).tolist()
    states = [(a, b, c)]
    for m00, m01, m02, m10, m11, m12, m20, m21, m22 in props:
        a, b, c = (m00 * a + m01 * b + m02 * c,
                   m10 * a + m11 * b + m12 * c,
                   m20 * a + m21 * b + m22 * c)
        states.append((a, b, c))
    return Trajectory(times=grid, states=np.array(states, dtype=complex))
