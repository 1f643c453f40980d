"""Parameter sweeps writing reproducible CSV data files.

Three sweep families cover the standard outputs of the design workflow:
population traces over time (both handednesses from one propagation),
fidelity against a single error axis, and the 2-D (alpha, delta) fidelity
map.  The sensitivity against the ansatz weight n is scanned by
``robustness.optimize_n``, which needs only its minimum.

Each sweep takes one scheme and its error amplitudes as arrays:
``fidelity_curve`` a schedule, an error kind, its amplitudes and a mode;
``fidelity_heatmap`` a schedule, its alphas and its deltas.  The metadata
records each array as `[first,last]xlength`, and names the scheme, like the
columns of ``fidelity_curve``, by ``InvariantSchedule.name``.

Every output is deterministic: no timestamps, fixed float formatting (15
significant digits), and one calling thread.  The exact fidelities of a
sweep's error points are computed in one batched call
(``robustness.exact_fidelities``); its arithmetic is elementwise over the
points, so each value is the same, bit for bit, as that point computed
alone, whatever the batch.  CSV files start with a commented metadata block
(`# key = value`) sufficient to reproduce the run.

Exact fidelities are propagated for the left-handed system only (the one
fidelity ``exact_fidelities`` returns per error point); the same value
fills the right-handed column.  With P the swap of levels 1 and 3 and
S = diag(1, -1, 1), P H_L(alpha, delta) P = H_R(alpha, -delta) and
H_L(alpha, -delta) = -S conj(H_L(alpha, delta)) S, so F_R(alpha, delta) =
F_L(alpha, -delta) = F_L(alpha, delta).  The second relation holds exactly in
floating point; a right-handed propagation agrees to about 1e-14.  It also
folds every exact sweep: ``exact_fidelities`` propagates each distinct
pair (alpha, |delta|) once, so a detuning axis symmetric about 0 costs about
half its points (the default 101x101 heatmap propagates 7373 cells, not
10201).  Axis values that are not exact negatives of each other are simply
propagated twice; no value changes.

The population traces use the same mirror at alpha = delta = 0: P H_L(t) P =
H_R(t) and P|2> = |2>, so psi_R(t) = P psi_L(t), and ``population_trace``
propagates the left-handed system once and swaps p1 and p3 for the
right-handed trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._csvrows import write_table
from ._version import __version__
from .dynamics import Handedness, QuantumState, propagate
from .invariants import InvariantSchedule, schedule_hamiltonian
from .quadrature import ABS_TOL
from .robustness import (_sampled_couplings, exact_fidelities, q_alpha, q_delta,
                         second_order_fidelity)

TRACE_POINTS = 201          # rows per population trace at most, endpoints included
HIGH_FIDELITY_LEVEL = 0.99  # the heatmap's F >= level region


@dataclass(frozen=True)
class SweepResult:
    """Column-oriented sweep output plus reproduction metadata."""

    columns: tuple
    data: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        bad = [c for c, ok in zip(self.columns, np.isfinite(self.data).all(axis=0)) if not ok]
        if bad:
            raise ValueError(f"{self.metadata.get('sweep', 'sweep')}: non-finite {', '.join(bad)}")

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def to_csv(self, path, extra_metadata: dict | None = None) -> None:
        """Write the metadata block, the column header and one ``%.15g`` row per data row.

        The metadata block holds ``metadata``, then the `extra_metadata` keys.
        The rows are the bytes of the ``%.15g`` row template
        (``_csvrows.format_rows``), and every line ends in a line feed.
        """
        write_table(path, {**self.metadata, **(extra_metadata or {})}, ",".join(self.columns),
                    self.data)


def _base_metadata(spec_like: dict) -> dict:
    meta = {"code_version": __version__}
    meta.update(spec_like)
    return meta


def _scheme_meta(schedule: InvariantSchedule) -> str:
    desc = schedule.describe()
    return f"{schedule.name}:" + ",".join(f"{k}={v}" for k, v in desc.items())


# ---------------------------------------------------------------------------
# sweep operations
# ---------------------------------------------------------------------------

def population_trace(schedule: InvariantSchedule, steps: int,
                     clamp: float) -> dict[Handedness, SweepResult]:
    """Level populations against t/T from the initial state |2>, at TRACE_POINTS times.

    The state is propagated on the schedule's `steps`-interval grid
    (``InvariantSchedule.grid``), and the rows are the grid points of
    TRACE_POINTS equally spaced indices (all of them if steps < TRACE_POINTS).
    The ansatz grid is uniform; the sps grid is graded after the clamp switch,
    so at the default clamp and 400 steps 101 of the 201 sps rows fall below
    0.1 T.  Returns one trace per handedness from one left-handed propagation.  With
    P the swap of levels 1 and 3, H_R(t) = P H_L(t) P, and P leaves |2>
    unchanged, so psi_R(t) = P psi_L(t): the right-handed trace is the left
    one with its columns p1 and p3 swapped.  An independent right-handed
    propagation agrees to rounding (about 1e-14).
    """
    T = schedule.duration
    grid = schedule.grid(steps, clamp)
    pops = propagate(schedule_hamiltonian(schedule, Handedness.LEFT, clamp),
                     QuantumState.basis(2), grid).populations
    keep = np.unique(np.round(np.linspace(0, steps, TRACE_POINTS)).astype(int))
    left = np.column_stack([grid[keep] / T, pops[keep, 0], pops[keep, 1], pops[keep, 2]])
    traces = {}
    for hand, data in ((Handedness.LEFT, left), (Handedness.RIGHT, left[:, [0, 3, 2, 1]])):
        meta = _base_metadata({
            "sweep": "population_trace",
            "scheme": _scheme_meta(schedule),
            "handedness": hand.value,
            "steps": steps,
            "clamp": clamp,
            "output_points": len(keep),
        })
        traces[hand] = SweepResult(columns=("t_over_T", "p1", "p2", "p3"), data=data,
                                   metadata=meta)
    return traces


def _axis_meta(values: np.ndarray) -> str:
    return f"[{values[0]:g},{values[-1]:g}]x{len(values)}"


def fidelity_curve(schedule: InvariantSchedule, kind: str, amplitudes,
                   mode: str, steps: int, clamp: float) -> SweepResult:
    """Fidelity of `schedule` at each error amplitude; the columns carry its name.

    `kind` is "systematic" (the amplitudes are alphas) or "detuning" (deltas).
    `mode` "exact" writes the exact left- and right-handed columns, "perturbative"
    the second-order column, and "both" all three plus the agreement metadata.
    Every mode samples the pulses once, at the nodes the exact fidelities use,
    so a pulse that violates `clamp` is rejected in every mode.
    """
    column = {"systematic": "alpha", "detuning": "delta"}.get(kind)
    if column is None:
        raise ValueError(f"unknown error kind {kind!r}")
    if mode not in ("exact", "perturbative", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    amplitudes = np.asarray(amplitudes, dtype=float)
    columns = [column]
    data = [amplitudes]
    if mode == "perturbative":
        # the pulses the exact modes would propagate, so that the same clamp and
        # singularity checks reject the scheme
        _sampled_couplings(schedule, steps, clamp)
    else:
        alphas, deltas = (amplitudes, 0.0) if kind == "systematic" else (0.0, amplitudes)
        exact = exact_fidelities(schedule, alphas, deltas, steps, clamp)
        columns += [f"F_{schedule.name}_exact_{hand.value}" for hand in Handedness]
        data += [exact] * 2
    if mode != "exact":
        measure = q_alpha if kind == "systematic" else q_delta
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite q is rejected next
            sens = measure(schedule)
        if not math.isfinite(sens):
            raise ValueError(f"fidelity_curve: q_{kind} of {schedule.name} is {sens}; "
                             "the sensitivity overflows at this duration")
        # an overflow gives inf, which SweepResult rejects
        with np.errstate(over="ignore", invalid="ignore"):
            pert = second_order_fidelity(kind, amplitudes, sens)
        columns.append(f"F_{schedule.name}_pert")
        data.append(pert)
    data = np.column_stack(data)
    meta = _base_metadata({
        "sweep": "fidelity_curve",
        "error_axis": kind + _axis_meta(amplitudes),
        "mode": mode,
        "handedness": "both",
        "steps": steps,
        "clamp": clamp,
        "quad_abs_tol": ABS_TOL,
        "schemes": _scheme_meta(schedule),
    })
    if mode == "both":
        # validity window: |alpha| <= 0.1, or |delta|*T <= 0.5 for the detuning axis
        window = 0.1 if kind == "systematic" else 0.5 / schedule.duration
        meta.update(_agreement_stats(column, window, amplitudes, exact, pert))
    return SweepResult(columns=tuple(columns), data=data, metadata=meta)


def _agreement_stats(column: str, window: float, amplitudes: np.ndarray,
                     exact: np.ndarray, pert: np.ndarray) -> dict:
    """Exact/perturbative gap inside the quadratic validity window, flagged outside."""
    inside = np.abs(amplitudes) <= window
    gap = np.abs(exact - pert)
    worst_inside = float(np.max(gap[inside], initial=0.0))
    flagged = int(np.sum((gap > 0.01) & ~inside))
    return {
        "agreement_window": f"|{column}|<={window:g}",
        "agreement_worst_inside": f"{worst_inside:.3e}",
        # a flagged point counts once per exact column
        "agreement_flagged_outside": flagged * len(Handedness),
    }


def fidelity_heatmap(schedule: InvariantSchedule, alphas, deltas,
                     steps: int, clamp: float) -> SweepResult:
    """Exact fidelity on the (alpha, delta) grid of two amplitude arrays.

    The error Hamiltonian combines both errors.  Long-format rows (alpha,
    delta, F_exact_left, F_exact_right; the two are equal, see the module
    docstring), alpha-major; the metadata reports the fraction of grid cells
    with F >= HIGH_FIDELITY_LEVEL and whether that region is contiguous
    around the zero-error point.
    """
    alphas, deltas = np.asarray(alphas, dtype=float), np.asarray(deltas, dtype=float)
    cell_alphas = np.repeat(alphas, len(deltas))
    cell_deltas = np.tile(deltas, len(alphas))
    fidelities = exact_fidelities(schedule, cell_alphas, cell_deltas, steps, clamp)
    data = np.column_stack([cell_alphas, cell_deltas, fidelities, fidelities])
    columns = ["alpha", "delta"] + [f"F_exact_{h.value}" for h in Handedness]
    meta = _base_metadata({
        "sweep": "fidelity_heatmap",
        "scheme": _scheme_meta(schedule),
        "alpha_axis": _axis_meta(alphas),
        "delta_axis": _axis_meta(deltas),
        "handedness": "both",
        "steps": steps,
        "clamp": clamp,
    })
    region = f"region_F>={HIGH_FIDELITY_LEVEL:g}"
    fraction, contiguous = _high_fidelity_region(
        fidelities.reshape(len(alphas), len(deltas)), alphas, deltas)
    for hand in Handedness:
        meta[f"{region}_fraction_{hand.value}"] = f"{fraction:.6g}"
        meta[f"{region}_contiguous_{hand.value}"] = contiguous
    return SweepResult(columns=tuple(columns), data=data, metadata=meta)


def _high_fidelity_region(fidelities: np.ndarray, alphas: np.ndarray,
                         deltas: np.ndarray) -> tuple[float, bool]:
    """(area fraction, contiguous-around-origin) of the F >= HIGH_FIDELITY_LEVEL region."""
    mask = fidelities >= HIGH_FIDELITY_LEVEL
    fraction = float(np.mean(mask))
    if not np.any(mask):
        return 0.0, False
    i0 = int(np.argmin(np.abs(alphas)))
    j0 = int(np.argmin(np.abs(deltas)))
    if not mask[i0, j0]:
        return fraction, False
    seen = np.zeros_like(mask, dtype=bool)
    queue = [(i0, j0)]
    seen[i0, j0] = True
    while queue:
        i, j = queue.pop()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if 0 <= a < mask.shape[0] and 0 <= b < mask.shape[1]:
                if mask[a, b] and not seen[a, b]:
                    seen[a, b] = True
                    queue.append((a, b))
    return fraction, bool(np.array_equal(seen, mask))


__all__ = ["SweepResult", "population_trace", "fidelity_curve", "fidelity_heatmap"]
