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

The package never assembles this matrix: it is described by its real
couplings (Omega, -s * Omega_q), the second signed by
``Handedness.coupling_sign``.  The systematic amplitude error alpha and the
detuning delta turn H into (1 + alpha) H + delta (|3><3| - |1><1|); only the
propagators take them, and they write the entries of each exponential from
the couplings (``_half_step_exponentials``).  The tests check those against
the matrix exponential of the perturbed matrix, which only they assemble.

Propagation uses the fourth-order commutator-free Magnus step CF4 (Blanes &
Moan, Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske, J. Comput.
Phys. 230, 5930 (2011)).  A step of width h samples H at its two Gauss nodes
t + (1/2 -+ sqrt(3)/6) h, giving H1 and H2, and applies two exponentials,
each over h/2: first exp(-i (h/2) 2(a1 H1 + a2 H2)), then
exp(-i (h/2) 2(a2 H1 + a1 H2)), with a1 = 1/4 + sqrt(3)/6 and
a2 = 1/4 - sqrt(3)/6.  The local error is O(h^5), so the global error falls
16-fold when h is halved.  Every factor is an exact matrix exponential, so
every step is unitary and the state norm is preserved structurally, not by
tolerance.  The perturbed H is affine in (Omega, Omega_q) and the two
weights 2 a1 and 2 a2 sum to 1, so each combined exponent is again such a
matrix, with the same alpha and delta.  It is Hermitian and traceless with
det H = 0, so its spectrum is exactly {-r, 0, r} and each exponential has
a closed form.  ``gauss_nodes`` gives the 2N interleaved node times of an
N-step grid.  Both propagation paths share one front end and one
exponential.  ``_cf4_exponents`` calls a vectorized callable once, on the
nodes of a grid, for the real couplings (Omega, sign * Omega_q) there,
rejects samples of the wrong shape or that are not finite, and returns the
real couplings of the 2N combined exponents with their widths h_k / 2.
``_half_step_exponentials`` writes the closed form from them:

* ``propagate`` writes the exponentials at alpha = delta = 0 and advances
  the state through the steps, returning every intermediate state.  A pair
  of real couplings can only describe a cyclic Hamiltonian, so no
  precondition needs checking;
* exact fidelities need only the final state, for many error points
  (alpha, delta) over one pulse sampling.  ``_cf4_products`` writes the
  exponentials of every point from the one set of combined exponents, and
  multiplies each point's 2N factors by pairwise reduction
  (``_tree_product``), a chunk of points at a time, into preallocated
  buffers.

The 3x3 arithmetic runs component-major, on (3,3,N) arrays whose trailing
axis runs over the steps (and (3,3,M,2N) arrays, M error points, in the
batched path): one 3x3 product of N pairs is then 27 elementwise products
of length-N vectors.  ``np.matmul`` on an (N,3,3) stack instead makes one
small-matrix call per step, about 300 ns each.  ``propagate`` advances its
state through the step propagators with Python complex arithmetic, which is
cheaper than one numpy call per 3x3 mat-vec step.
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
        """The basis ket |level> for level in {1, 2, 3}."""
        if level not in (1, 2, 3):
            raise ValueError(f"level must be 1, 2 or 3, got {level}")
        amps = np.zeros(3, dtype=complex)
        amps[level - 1] = 1.0
        return cls(amps)

    def __array__(self, dtype=None, copy=None):
        """The amplitudes; a new array when numpy asks for a copy (``copy=True``)."""
        if copy:
            return np.array(self.amplitudes, dtype=dtype)
        return np.asarray(self.amplitudes, dtype=dtype)


def _checked_duration(duration: float) -> float:
    """`duration` as a float, or ``ValueError`` unless it is positive and finite."""
    if not (np.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    return float(duration)


def make_grid(duration: float, steps: int) -> np.ndarray:
    """Uniform time grid with `steps` intervals on [0, duration]."""
    duration = _checked_duration(duration)
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


def _cf4_exponents(couplings_at: Callable,
                   grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, Q, taus): the real couplings of the 2N CF4 exponents of `grid`, and their widths.

    `couplings_at` is called once, on the ``gauss_nodes`` of `grid`, as in
    ``propagate``.  Step k's pair of samples (H1, H2) becomes 2(a1 H1 + a2 H2),
    applied first, and 2(a2 H1 + a1 H2), each exponentiated over h_k / 2.
    With w1 = 2 a1 and 2 a2 = 1 - w1 these are H2 + w1 (H1 - H2) and
    H1 - w1 (H1 - H2); the cyclic Hamiltonian is linear in its real couplings,
    so the rule combines the (2N,) samples of each coupling.  This is the
    one sampling of both propagation paths; it raises the ``ValueError`` and
    ``NonFiniteHamiltonian`` that ``propagate`` documents for the samples.
    """
    nodes = gauss_nodes(grid)
    w, q = (np.asarray(x, dtype=float) for x in couplings_at(nodes))
    if w.shape != nodes.shape or q.shape != nodes.shape:
        raise ValueError(
            f"couplings callable returned shapes {w.shape} and {q.shape} for "
            f"{len(nodes)} times; propagate needs two ({len(nodes)},) arrays"
        )
    samples = np.stack((w, q))
    finite = np.isfinite(samples).all(axis=0)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteHamiltonian(
            f"Hamiltonian sample at t={nodes[bad]:.6g} has non-finite couplings "
            "(unclamped pulse singularity?)"
        )
    h1, h2 = samples[:, 0::2], samples[:, 1::2]
    shift = h1 - h2
    shift *= _W1
    exponents = np.empty_like(samples)
    np.add(h2, shift, out=exponents[:, 0::2])
    np.subtract(h1, shift, out=exponents[:, 1::2])
    return exponents[0], exponents[1], np.repeat(0.5 * np.diff(grid), 2)


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


def _mul3_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, term: np.ndarray) -> None:
    """Per-step products a_k b_k of two (3,3,...) component-major stacks, into `out`.

    The first of the three terms is written into `out`, the later ones into
    `term` and added.
    """
    np.multiply(a[:, 0, None], b[None, 0], out=out)
    np.multiply(a[:, 1, None], b[None, 1], out=term)
    out += term
    np.multiply(a[:, 2, None], b[None, 2], out=term)
    out += term


_CHUNK_BYTES = 1 << 19      # (3,3,M,2N) half-step exponentials per chunk of error points


def _half_step_exponentials(w: np.ndarray, q: np.ndarray, taus: np.ndarray,
                            alphas: np.ndarray, deltas: np.ndarray,
                            out: np.ndarray) -> np.ndarray:
    """Write exp(-i*H*tau) of every (error point, half step) pair into a (3,3,M,2N) array.

    (w, q) are the real couplings of the 2N combined CF4 exponents, with the
    handedness sign in q, and `taus` their widths; error point m has
    amplitude error alphas[m] and detuning deltas[m].  With W = (1 + alpha) w,
    Q = (1 + alpha) q and d = delta the exponent is

        H = [[-d, W, iQ], [W, 0, W], [-iQ, W, d]],

    traceless, and det H = 2 Re(H12 H23 H31) + d W^2 - d W^2 = 0 because
    H12 H23 H31 = -i Q W^2 is imaginary.  Its characteristic polynomial is
    then lambda^3 - r^2 lambda with r^2 = tr(H^2)/2 = 2 W^2 + Q^2 + d^2, so
    H^3 = r^2 H and

        exp(-i*H*tau) = I - i s H - c H^2,  s = sin(r tau)/r,  c = (1 - cos(r tau))/r^2.

    Both coefficients are written with sinc, s = tau sinc(r tau/pi) and
    c = (tau sinc(r tau/2pi))^2 / 2, so r = 0 gives the identity with no
    branch.  The nine entries are written from real (M,2N) arrays: no complex
    stack and no H^2 product.  This is the only code that writes exp(-i*H*tau).
    """
    scale = 1.0 + alphas[:, None]
    ww = scale * w
    qq = scale * q
    d = deltas[:, None]
    w2 = ww * ww
    corner = d * d + w2 + qq * qq       # (H^2)_11 = (H^2)_33 = r^2 - W^2
    r = np.sqrt(corner + w2)
    s = taus * np.sinc(r * taus / np.pi)
    c = taus * np.sinc(r * taus / (2.0 * np.pi))
    c *= c
    c *= 0.5
    re, im = out.real, out.imag
    np.multiply(c, corner, out=re[0, 0])
    np.subtract(1.0, re[0, 0], out=re[0, 0])
    re[2, 2] = re[0, 0]
    np.multiply(s, d, out=im[0, 0])
    np.negative(im[0, 0], out=im[2, 2])
    cw2 = c * w2
    np.multiply(2.0, cw2, out=re[1, 1])
    np.subtract(1.0, re[1, 1], out=re[1, 1])
    sq = s * qq
    np.subtract(sq, cw2, out=re[0, 2])
    np.negative(sq, out=re[2, 0])
    re[2, 0] -= cw2
    for i, j in ((1, 1), (0, 2), (2, 0)):
        im[i, j] = 0.0
    np.multiply(c * ww, d, out=re[0, 1])
    re[1, 0] = re[0, 1]
    np.negative(re[0, 1], out=re[1, 2])
    re[2, 1] = re[1, 2]
    cq = c * qq
    s_plus = np.add(s, cq, out=sq)          # s + cQ, in the spent buffer of sQ
    np.multiply(ww, s_plus, out=im[0, 1])
    np.negative(im[0, 1], out=im[0, 1])
    im[1, 2] = im[0, 1]
    s_minus = np.subtract(cq, s, out=cq)    # cQ - s
    np.multiply(ww, s_minus, out=im[1, 0])
    im[2, 1] = im[1, 0]
    return out


def _tree_workspace(points: int, length: int) -> tuple:
    """Ping, pong and term buffers for ``_tree_product`` of (3,3,points,length) factors."""
    half = max(length // 2, 1)
    return (np.empty((3, 3, points, half), dtype=complex),
            np.empty((3, 3, points, max(length // 4, 1)), dtype=complex),
            np.empty((3, 3, points, max(half, 2)), dtype=complex))


def _tree_product(u: np.ndarray, work: tuple) -> np.ndarray:
    """U_{n-1} ... U_1 U_0 of every point of a (3,3,M,n) stack, by pairwise reduction.

    Each level multiplies neighbours (U_{2j+1} U_{2j}) of all points at once;
    an odd trailing factor is folded in on the left of the last pair.  The
    levels write alternately into the ping and pong buffers of `work` (from
    ``_tree_workspace``), so no level allocates.  Returns a (3,3,M) view into
    `work` (into `u` if n = 1), valid until the buffers are reused.
    """
    ping, pong, term = work
    p, out_buf = u, ping
    while p.shape[-1] > 1:
        n = p.shape[-1]
        half = n // 2
        out = out_buf[..., :half]
        _mul3_into(p[..., 1::2], p[..., :n - 1:2], out, term[..., :half])
        if n % 2:
            _mul3_into(p[..., -1:], out[..., -1:], term[..., :1], term[..., 1:2])
            out[..., -1:] = term[..., :1]
        p, out_buf = out, (pong if out_buf is ping else ping)
    return p[..., 0]


def _cf4_products(w: np.ndarray, q: np.ndarray, taus: np.ndarray,
                  alphas: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """(3,3,M) CF4 propagators of one pulse sampling at M error points.

    (w, q, taus) are a grid's 2N combined exponents and their widths, as
    ``_cf4_exponents`` returns them; error point m is the Hamiltonian
    (1 + alphas[m]) H + deltas[m] (|3><3| - |1><1|), with H the cyclic
    Hamiltonian of the module docstring at the samples.  That is affine in
    the couplings and the CF4 weights sum to 1, so every point shares the
    combined exponents, with its own alpha and delta.  Points run in chunks
    of about ``_CHUNK_BYTES`` of exponentials, each through
    ``_half_step_exponentials`` and one ``_tree_product``.  Every operation
    is elementwise over the points, so a point's propagator does not depend
    on the other points or on the chunking.
    """
    points, length = len(alphas), len(taus)
    chunk = max(1, min(points, _CHUNK_BYTES // (9 * 16 * length)))
    u = np.empty((3, 3, chunk, length), dtype=complex)
    work = _tree_workspace(chunk, length)
    total = np.empty((3, 3, points), dtype=complex)
    for start in range(0, points, chunk):
        block = slice(start, min(start + chunk, points))
        m = block.stop - start
        _half_step_exponentials(w, q, taus, alphas[block], deltas[block], u[:, :, :m])
        total[:, :, block] = _tree_product(u[:, :, :m], tuple(b[:, :, :m] for b in work))
    return total


def propagate(
    couplings_at: Callable,
    initial: QuantumState | np.ndarray,
    grid: np.ndarray,
) -> Trajectory:
    """Solve i d|psi>/dt = H(t)|psi> on `grid` by the CF4 step of the module docstring.

    Each step applies the two exact 3x3 exponentials of its combined CF4
    exponents, written by ``_half_step_exponentials`` at alpha = delta = 0
    and multiplied into one step propagator, so every step is unitary.

    Parameters
    ----------
    couplings_at : callable
        Vectorized: called once with the (2N,) array of ``gauss_nodes`` of the
        N grid steps, it returns the real couplings (W, Q) there, two (2N,)
        arrays: W = Omega and Q = ``coupling_sign`` * Omega_q, as from
        ``schedule_hamiltonian``.  Every such pair is a cyclic Hamiltonian.
    initial : QuantumState or normalized complex 3-vector
    grid : strictly increasing, finite time samples covering the evolution window

    Returns
    -------
    Trajectory
        the state at every grid time, the initial state included.

    Raises
    ------
    NonFiniteHamiltonian
        naming the time of the first sample that is NaN or infinite, or the
        midpoint of the first step whose propagator is not finite (couplings
        or a step too large to exponentiate).
    ValueError
        naming the shapes the callable returned, if they are not (2N,), or
        the shape or norm of an `initial` that is not a ``QuantumState``.
    """
    initial = QuantumState(initial)
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or len(grid) < 2 or not np.isfinite(grid).all()
            or not np.all(np.diff(grid) > 0)):
        raise ValueError("grid must be a strictly increasing 1-D array of finite times")
    w, q, taus = _cf4_exponents(couplings_at, grid)
    halves = np.empty((3, 3, 1, len(taus)), dtype=complex)
    no_error = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite step is rejected next
        _half_step_exponentials(w, q, taus, no_error, no_error, halves)
    halves = halves[:, :, 0]
    finite = np.isfinite(halves).all(axis=(0, 1))
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0]) // 2
        raise NonFiniteHamiltonian(
            f"the propagator of the step at t={grid[k] + taus[2 * k]:.6g} is not "
            "finite: its Hamiltonian is too large to exponentiate over the step"
        )
    props = np.empty((3, 3, len(grid) - 1), dtype=complex)
    _mul3_into(halves[..., 1::2], halves[..., 0::2], props, np.empty_like(props))
    a, b, c = initial.amplitudes.tolist()
    states = [a, b, c]      # flat: one list of 3N scalars converts faster than N tuples
    for m00, m01, m02, m10, m11, m12, m20, m21, m22 in props.reshape(9, -1).T.tolist():
        a, b, c = (m00 * a + m01 * b + m02 * c,
                   m10 * a + m11 * b + m12 * c,
                   m20 * a + m21 * b + m22 * c)
        states += (a, b, c)
    return Trajectory(times=grid, states=np.array(states, dtype=complex).reshape(-1, 3))
