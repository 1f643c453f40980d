"""Spans around the public functions of each chiralpulse module.

Tracing lives entirely in the benchmark: `Tracer.installed()` replaces public
names where the consuming module looks them up (e.g. `chiralpulse.cli.
fidelity_heatmap`, `chiralpulse.robustness.complex_quad`) with wrappers that
record a span -- name, start, end, process CPU time, parent span and the
command ("request") it belongs to -- and restores the originals on exit.
Private (`_`-prefixed) names are never wrapped.  Spans are kept in memory and
reduced to per-layer metrics by `layer_metrics`.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    cpu: float
    parent: int | None    # index into Tracer.spans
    request: int          # command counter, shared by every span of one command
    round: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def targets(cp) -> list:
    """(owner, attribute, span name) for every wrapped public name."""
    cli, robustness, sweeps, invariants = cp.cli, cp.robustness, cp.sweeps, cp.invariants
    return [
        (cli, "fidelity_heatmap", "sweeps.fidelity_heatmap"),
        (cli, "fidelity_curve", "sweeps.fidelity_curve"),
        (cli, "population_trace", "sweeps.population_trace"),
        (cli, "pulses_from_invariant", "invariants.pulses_from_invariant"),
        (cli, "validate_schedule", "invariants.validate_schedule"),
        (cli, "make_schedule", "invariants.make_schedule"),
        (cli, "ansatz_schedule", "invariants.ansatz_schedule"),
        (robustness, "ansatz_schedule", "invariants.ansatz_schedule"),
        (robustness, "q_alpha", "robustness.q_alpha"),
        (robustness, "q_delta", "robustness.q_delta"),
        (robustness, "complex_quad", "quadrature.complex_quad"),
        (sweeps, "q_alpha", "robustness.q_alpha"),
        (sweeps, "q_delta", "robustness.q_delta"),
        (invariants.PulseSchedule, "to_csv", "invariants.PulseSchedule.to_csv"),
        (sweeps.SweepResult, "to_csv", "sweeps.SweepResult.to_csv"),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self.round = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            with self._lock:
                index = len(self.spans)
                self.spans.append(Span(name, 0.0, 0.0, 0.0, parent, self.request, self.round))
            stack.append(index)
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1, cpu1 = time.perf_counter(), time.process_time()
                stack.pop()
                span = self.spans[index]
                span.start, span.end, span.cpu = t0, t1, cpu1 - cpu0
        return traced

    @contextmanager
    def installed(self, cp):
        saved = []
        try:
            for owner, attr, name in targets(cp):
                if attr.startswith("_"):
                    raise ValueError(f"refusing to trace private name {attr}")
                if attr not in owner.__dict__:
                    continue        # gone from the program: its metrics read 0
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_seconds(spans: list, index: int) -> float:
    """Span duration minus the part of it covered by its direct children."""
    parent = spans[index]
    covered, reach = 0.0, parent.start
    for child in sorted((s for s in spans if s.parent == index), key=lambda s: s.start):
        lo, hi = max(child.start, reach), min(child.end, parent.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return parent.seconds - covered


def layer_metrics(spans: list, rounds: list, workers: int, work: dict, probe: dict,
                  overhead_pct: float) -> dict:
    """Per-layer metrics from the traced rounds.

    Counts are per round; `_ms` values are medians per call; `_s` values are
    medians over rounds of the time spent per round.  A layer the workload
    never enters reports 0.
    """
    def named(*names):
        return [s for s in spans if s.name in names]

    def per_call_ms(*names):
        xs = [s.seconds * 1e3 for s in named(*names)]
        return statistics.median(xs) if xs else 0.0

    def per_round(values_of_round):
        return statistics.median(values_of_round(r) for r in rounds)

    def round_seconds(*names):
        return per_round(lambda r: sum(s.seconds for s in named(*names) if s.round == r))

    def count(*names):
        return len(named(*names)) / len(rounds)

    sweep_names = ("sweeps.fidelity_heatmap", "sweeps.fidelity_curve", "sweeps.population_trace")
    sweep_idx = [i for i, s in enumerate(spans) if s.name in sweep_names]
    sweep_wall = sum(spans[i].seconds for i in sweep_idx)
    sweep_cpu = sum(spans[i].cpu for i in sweep_idx)
    main_idx = [i for i, s in enumerate(spans) if s.name == "cli.main"]
    main_wall = sum(spans[i].seconds for i in main_idx)
    quad_wall = sum(s.seconds for s in named("quadrature.complex_quad"))
    build_names = ("invariants.make_schedule", "invariants.ansatz_schedule")

    return {
        "dynamics.propagate_ms": probe["propagate_ms"],
        "dynamics.steps": work["steps"],
        "dynamics.norm_drift_max": probe["norm_drift_max"],
        "sweeps.heatmap_s": round_seconds("sweeps.fidelity_heatmap"),
        "sweeps.curve_s": round_seconds("sweeps.fidelity_curve"),
        "sweeps.trace_ms": per_call_ms("sweeps.population_trace"),
        "sweeps.self_s": per_round(lambda r: sum(
            self_seconds(spans, i) for i in sweep_idx if spans[i].round == r)),
        "sweeps.cpu_util": sweep_cpu / (sweep_wall * workers) if sweep_wall else 0.0,
        "sweeps.fidelities": work["sweep_fidelities"],
        "robustness.q_evals": count("robustness.q_alpha", "robustness.q_delta"),
        "robustness.q_ms": per_call_ms("robustness.q_alpha", "robustness.q_delta"),
        "quadrature.calls": count("quadrature.complex_quad"),
        "quadrature.ms": per_call_ms("quadrature.complex_quad"),
        "quadrature.share": quad_wall / main_wall if main_wall else 0.0,
        "invariants.schedule_builds": count(*build_names),
        "invariants.schedule_build_ms": per_call_ms(*build_names),
        "invariants.pulses_ms": per_call_ms("invariants.pulses_from_invariant"),
        "invariants.validate_ms": per_call_ms("invariants.validate_schedule"),
        "invariants.pulses_csv_ms": per_call_ms("invariants.PulseSchedule.to_csv"),
        "cli.self_ms": statistics.median(self_seconds(spans, i) * 1e3 for i in main_idx),
        "sweeps.csv_write_ms": per_call_ms("sweeps.SweepResult.to_csv"),
        "trace.overhead_pct": overhead_pct,
    }

