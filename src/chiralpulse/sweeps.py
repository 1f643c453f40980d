"""Parameter sweeps writing reproducible CSV data files.

Three sweep families cover the standard outputs of the design workflow:
population traces over time, fidelity against a single error axis, and the
2-D (alpha, delta) fidelity map.  The sensitivity against the ansatz weight n
is scanned by ``robustness.optimize_n``, which needs only its minimum.

Every output is deterministic: no timestamps, fixed float formatting (15
significant digits), and every error point is computed on its own, in order,
in the calling thread.  CSV files start with a commented metadata block
(`# key = value`) sufficient to reproduce the run.

Exact fidelities are propagated for the left-handed system only; the same
value fills the right-handed column.  With P the swap of levels 1 and 3 and
S = diag(1, -1, 1), P H_L(alpha, delta) P = H_R(alpha, -delta) and
H_L(alpha, -delta) = -S conj(H_L(alpha, delta)) S, so F_R(alpha, delta) =
F_L(alpha, -delta) = F_L(alpha, delta).  The second relation holds exactly in
floating point; a right-handed propagation agrees to about 1e-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._version import __version__
from .dynamics import (
    DEFAULT_STEPS,
    Handedness,
    basis_state,
    gauss_nodes,
    make_grid,
    propagate,
)
from .invariants import (
    DEFAULT_CLAMP,
    InvariantSchedule,
    default_clamp,
    pulses_from_invariant,
    schedule_hamiltonian,
)
from .quadrature import ABS_TOL
from .robustness import (
    ErrorModel,
    fidelity_from_pulses,
    q_alpha,
    q_delta,
    second_order_fidelity,
)

FLOAT_FORMAT = "%.15g"
TRACE_POINTS = 201          # rows per population trace at most, endpoints included
HIGH_FIDELITY_LEVEL = 0.99  # the heatmap's F >= level region
DEFAULT_CLAMP_META = f"default({DEFAULT_CLAMP:g}/T)"


@dataclass(frozen=True)
class ErrorAxis:
    """One swept error amplitude: kind, closed range, and point count."""

    kind: str
    minimum: float
    maximum: float
    points: int

    def __post_init__(self):
        if self.kind not in ("systematic", "detuning"):
            raise ValueError(f"axis kind must be systematic or detuning, got {self.kind!r}")
        if self.points < 2:
            raise ValueError(f"axis needs at least 2 points, got {self.points}")
        if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
            raise ValueError(f"axis bounds must be finite, got [{self.minimum}, {self.maximum}]")
        if not self.minimum < self.maximum:
            raise ValueError("axis minimum must be below maximum")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.points)

    @property
    def column(self) -> str:
        return "alpha" if self.kind == "systematic" else "delta"


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: schemes, error axes, evaluation mode, and solver settings."""

    schemes: tuple          # of (label, InvariantSchedule)
    axis1: ErrorAxis
    axis2: Optional[ErrorAxis] = None
    mode: str = "exact"     # exact | perturbative | both
    steps: int = DEFAULT_STEPS
    clamp: Optional[float] = None

    def __post_init__(self):
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        if self.mode not in ("exact", "perturbative", "both"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")


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

    def to_csv(self, path) -> None:
        lines = [f"# {key} = {value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.data:
            lines.append(",".join(FLOAT_FORMAT % v for v in row))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _base_metadata(spec_like: dict) -> dict:
    meta = {"code_version": __version__}
    meta.update(spec_like)
    return meta


def _scheme_meta(label: str, schedule: InvariantSchedule) -> str:
    desc = schedule.describe()
    return f"{label}:" + ",".join(f"{k}={v}" for k, v in desc.items())


# ---------------------------------------------------------------------------
# sweep operations
# ---------------------------------------------------------------------------

def population_trace(schedule: InvariantSchedule, handedness: Handedness,
                     steps: int = DEFAULT_STEPS,
                     clamp: float | None = None) -> SweepResult:
    """Level populations against t/T from the initial state |2>, at TRACE_POINTS times."""
    T = schedule.duration
    if clamp is None:
        clamp = default_clamp(T)
    grid = make_grid(T, steps)
    pops = propagate(schedule_hamiltonian(schedule, handedness, clamp),
                     basis_state(2), grid).populations
    keep = np.unique(np.round(np.linspace(0, steps, TRACE_POINTS)).astype(int))
    data = np.column_stack([grid[keep] / T, pops[keep, 0], pops[keep, 1], pops[keep, 2]])
    meta = _base_metadata({
        "sweep": "population_trace",
        "scheme": _scheme_meta(schedule.label, schedule),
        "handedness": handedness.value,
        "steps": steps,
        "clamp": clamp,
        "output_points": len(keep),
    })
    return SweepResult(columns=("t_over_T", "p1", "p2", "p3"), data=data, metadata=meta)


def fidelity_curve(spec: SweepSpec) -> SweepResult:
    """Fidelity of every requested scheme against one error amplitude axis."""
    if spec.axis2 is not None:
        raise ValueError("fidelity_curve takes a single error axis")
    axis = spec.axis1
    amplitudes = axis.values
    columns: list[str] = [axis.column]
    meta_schemes = []

    tasks = []  # per scheme: (pulses or None, dts, q or None)
    for label, schedule in spec.schemes:
        grid = make_grid(schedule.duration, spec.steps)
        pulses = None
        if spec.mode in ("exact", "both"):
            pulses = pulses_from_invariant(schedule, gauss_nodes(grid), spec.clamp)
            columns += [f"F_{label}_exact_{hand.value}" for hand in Handedness]
        sens = None
        if spec.mode in ("perturbative", "both"):
            measure = q_alpha if axis.kind == "systematic" else q_delta
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite q is rejected next
                sens = measure(schedule)
            if not math.isfinite(sens):
                raise ValueError(f"fidelity_curve: q_{axis.kind} of {label} is {sens}; "
                                 "the sensitivity overflows at this duration")
            columns.append(f"F_{label}_pert")
        tasks.append((pulses, np.diff(grid), sens))
        meta_schemes.append(_scheme_meta(label, schedule))

    def row(amp: float) -> list[float]:
        error = (ErrorModel.systematic(amp) if axis.kind == "systematic"
                 else ErrorModel.detuning(amp))
        out = [amp]
        for pulses, dts, sens in tasks:
            if pulses is not None:
                out += [fidelity_from_pulses(pulses, dts, error, Handedness.LEFT)] * 2
            if sens is not None:
                out.append(second_order_fidelity(axis.kind, amp, sens))
        return out

    data = np.asarray([row(float(amp)) for amp in amplitudes], dtype=float)
    meta = _base_metadata({
        "sweep": "fidelity_curve",
        "error_axis": f"{axis.kind}[{axis.minimum:g},{axis.maximum:g}]x{axis.points}",
        "mode": spec.mode,
        "handedness": "both",
        "steps": spec.steps,
        "clamp": spec.clamp if spec.clamp is not None else DEFAULT_CLAMP_META,
        "quad_abs_tol": ABS_TOL,
        "schemes": ";".join(meta_schemes),
    })
    if spec.mode == "both":
        meta.update(_agreement_stats(spec, axis, columns, data))
    return SweepResult(columns=tuple(columns), data=data, metadata=meta)


def _agreement_stats(spec: SweepSpec, axis: ErrorAxis, columns: list[str],
                     data: np.ndarray) -> dict:
    """Exact/perturbative gap inside the quadratic validity window, flagged outside."""
    duration = spec.schemes[0][1].duration
    # validity window: |alpha| <= 0.1, or |delta|*T <= 0.5 for the detuning axis
    window = 0.1 if axis.kind == "systematic" else 0.5 / duration
    inside = np.abs(data[:, 0]) <= window
    stats = {}
    worst_inside = 0.0
    flagged = 0
    for label, _ in spec.schemes:
        pert = data[:, columns.index(f"F_{label}_pert")]
        for hand in Handedness:     # a flagged point counts once per exact column
            gap = np.abs(data[:, columns.index(f"F_{label}_exact_{hand.value}")] - pert)
            if np.any(inside):
                worst_inside = max(worst_inside, float(np.max(gap[inside])))
            flagged += int(np.sum((gap > 0.01) & ~inside))
    stats["agreement_window"] = f"|{axis.column}|<={window:g}"
    stats["agreement_worst_inside"] = f"{worst_inside:.3e}"
    stats["agreement_flagged_outside"] = flagged
    return stats


def fidelity_heatmap(spec: SweepSpec) -> SweepResult:
    """Exact fidelity on an (alpha, delta) grid with the combined error Hamiltonian.

    Long-format rows (alpha, delta, F_exact_left, F_exact_right; the two are
    equal, see the module docstring); the metadata reports the fraction of grid
    cells with F >= HIGH_FIDELITY_LEVEL and whether that region is contiguous
    around the zero-error point.
    """
    if spec.axis2 is None:
        raise ValueError("fidelity_heatmap needs two error axes")
    if spec.axis1.kind != "systematic" or spec.axis2.kind != "detuning":
        raise ValueError("heatmap axes must be (systematic, detuning)")
    if len(spec.schemes) != 1:
        raise ValueError("fidelity_heatmap sweeps one scheme at a time")
    label, schedule = spec.schemes[0]
    grid = make_grid(schedule.duration, spec.steps)
    pulses = pulses_from_invariant(schedule, gauss_nodes(grid), spec.clamp)
    dts = np.diff(grid)
    alphas, deltas = spec.axis1.values, spec.axis2.values

    def row(a: float, d: float) -> list[float]:
        error = ErrorModel(alpha=a, delta=d)
        return [a, d] + [fidelity_from_pulses(pulses, dts, error, Handedness.LEFT)] * 2

    data = np.asarray([row(a, d) for a in alphas for d in deltas], dtype=float)
    columns = ["alpha", "delta"] + [f"F_exact_{h.value}" for h in Handedness]
    meta = _base_metadata({
        "sweep": "fidelity_heatmap",
        "scheme": _scheme_meta(label, schedule),
        "alpha_axis": f"[{spec.axis1.minimum:g},{spec.axis1.maximum:g}]x{spec.axis1.points}",
        "delta_axis": f"[{spec.axis2.minimum:g},{spec.axis2.maximum:g}]x{spec.axis2.points}",
        "handedness": "both",
        "steps": spec.steps,
        "clamp": spec.clamp if spec.clamp is not None else DEFAULT_CLAMP_META,
    })
    region = f"region_F>={HIGH_FIDELITY_LEVEL:g}"
    fraction, contiguous = high_fidelity_region(
        data[:, 2].reshape(len(alphas), len(deltas)), alphas, deltas)
    for hand in Handedness:
        meta[f"{region}_fraction_{hand.value}"] = f"{fraction:.6g}"
        meta[f"{region}_contiguous_{hand.value}"] = contiguous
    return SweepResult(columns=tuple(columns), data=data, metadata=meta)


def high_fidelity_region(fidelities: np.ndarray, alphas: np.ndarray,
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


__all__ = [
    "ErrorAxis", "SweepSpec", "SweepResult",
    "population_trace", "fidelity_curve", "fidelity_heatmap",
    "high_fidelity_region",
]
