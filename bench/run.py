#!/usr/bin/env python3
"""chiralpulse benchmark: one seeded workload, timed, checked, optionally traced.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from anywhere inside a chiralpulse checkout; the program is imported from
the checkout's `src/`, never from an installed copy.  Every command is a
closed-loop call of `chiralpulse.cli.main(argv)` in this process, issued only
after the previous one returned and its outputs were checked.  The last line
of stdout is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`).
A run record with the environment, samples, digests and accuracy points is
written to `.bench_out/records/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibration
import workloads
from reference import GATE, Reference
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")          # relative to ROOT, which becomes the working directory
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 170
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from chiralpulse.cli import main; sys.exit(main(sys.argv[2:]))")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MAX_REASONS = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="generates every input")
    p.add_argument("--seconds", type=float, required=True,
                   help="measure rounds until this much time has passed (>= 1 round)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics, untraced; 1: per-layer metrics")
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="work per round; 'tiny' is for the smoke test")
    p.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)),
                   help="--workers passed to every command (default: nproc)")
    p.add_argument("--ref-perturb", type=float, default=0.0,
                   help="add this to every reference value (smoke test of the gate)")
    args = p.parse_args(argv)
    if args.workers < 1 or not args.seconds >= 0:
        p.error("--workers must be >= 1 and --seconds >= 0")
    return args


def import_program():
    """Import chiralpulse from this checkout's src/; exit non-zero if it is absent."""
    package = SRC / "chiralpulse"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run the benchmark inside a chiralpulse checkout")
    sys.path.insert(0, str(SRC))
    import chiralpulse
    import chiralpulse.cli
    if Path(chiralpulse.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported chiralpulse from {chiralpulse.__file__}, not {package}")
    return chiralpulse


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(reason)


def resolve(cli, argv) -> dict:
    """The command's effective configuration, as the CLI itself resolves it."""
    return cli.resolve_config(cli.build_parser().parse_args(list(argv)))


def clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def call(main, cmd) -> tuple:
    """Run one command in-process; returns (seconds, exit code or error text, stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(list(cmd.argv))
    except Exception as exc:            # a traceback is a failed operation, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if rc != 0 and stderr.getvalue():
        rc = f"{rc} ({stderr.getvalue().strip()[-200:]})"
    return seconds, rc, stdout.getvalue()


def setup_sample(wl, cfg, ledger) -> float:
    """Fresh-process time to import chiralpulse and run the warm-up command."""
    clear(wl.warmup.out)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *wl.warmup.argv],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        rc, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        rc, stdout = "timeout", ""
    seconds = time.perf_counter() - t0
    res = workloads.check(wl.warmup, rc, stdout, cfg)
    ledger.add(res.ok, "setup " + res.reason)
    return seconds


def run_round(main, wl, cfgs, baseline, ledger, calibrations, tracer=None) -> dict:
    """One pass over the workload's commands; checks each right after it returns.

    After each command the calibration kernel runs `calibrations` times.
    """
    latencies, outcomes, kernel = [], [], []
    for i, (cmd, cfg) in enumerate(zip(wl.round, cfgs)):
        clear(cmd.out)
        if tracer is not None:
            tracer.request += 1
        seconds, rc, stdout = call(main, cmd)
        res = workloads.check(cmd, rc, stdout, cfg)
        if res.ok and baseline and res.digests != baseline[i].digests:
            res.ok, res.reason = False, f"{cmd.name}: outputs differ from the first round"
        ledger.add(res.ok, res.reason)
        latencies.append(seconds)
        outcomes.append(res)
        kernel += [calibration.kernel() for _ in range(calibrations)]
    return {"seconds": sum(latencies), "latencies": latencies, "outcomes": outcomes,
            "calibration": kernel}


def timed_rounds(cp, wl, cfgs, seconds, trace, ledger, tracer, take_setup) -> tuple:
    """Closed loop of rounds for `seconds`, plus the set-up samples.

    Untraced runs repeat plain rounds and take SETUP_RUNS set-up samples
    between them, spread evenly over the run, so that the samples do not all
    fall in one stretch of a shared host's interference; the time they take
    does not count against `seconds`.  Traced runs alternate plain and traced
    rounds, in equal numbers, so the overhead compares like with like, and
    take no set-up samples.
    """
    plain, traced, setup, baseline = [], [], [], None
    setup_runs = 0 if trace else SETUP_RUNS
    start, paused = time.perf_counter(), 0.0
    while True:
        if len(setup) < setup_runs and (time.perf_counter() - start - paused
                                        >= len(setup) * seconds / setup_runs):
            t0 = time.perf_counter()
            setup.append(take_setup())
            paused += time.perf_counter() - t0
            continue
        if trace and len(plain) > len(traced):
            with tracer.installed(cp):
                tracer.round = len(traced)
                traced.append(run_round(tracer.wrap("cli.main", cp.cli.main), wl, cfgs,
                                        baseline, ledger, wl.calibrations, tracer))
        else:
            plain.append(run_round(cp.cli.main, wl, cfgs, baseline, ledger, wl.calibrations))
        baseline = baseline or plain[0]["outcomes"]
        balanced = not trace or len(traced) == len(plain)
        if (balanced and len(setup) == setup_runs
                and time.perf_counter() - start - paused >= seconds):
            return plain, traced, setup


def dynamics_probe(cp, wl, cfgs) -> dict:
    """Time public `propagate(schedule_hamiltonian(...))` on the workload's schedules."""
    schedules = []
    for cmd, cfg in zip(wl.round, cfgs):
        T, clamp = cfg["T"], cfg["clamp"] / cfg["T"]
        if cmd.name == "scan":
            schedules += [(scheme, n, T, clamp) for _, scheme, n in workloads.scheme_tokens(cfg)]
        else:
            schedules.append((cfg["scheme"], cfg["n"], T, clamp))
    times, drift = [], 0.0
    for scheme, n, T, clamp in dict.fromkeys(schedules):
        schedule = cp.make_schedule(scheme, T, n)
        for hand in cp.Handedness:
            hamiltonian = cp.schedule_hamiltonian(schedule, hand, clamp)
            grid = cp.make_grid(T, cfgs[0]["steps"])
            t0 = time.perf_counter()
            traj = cp.propagate(hamiltonian, cp.QuantumState.basis(2), grid)
            times.append((time.perf_counter() - t0) * 1e3)
            drift = max(drift, traj.norm_deviation())
    return {"propagate_ms": statistics.median(times), "norm_drift_max": drift,
            "samples": len(times)}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "chiralpulse").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, source_sha256: str) -> dict:
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "git_commit": commit, "source_sha256": source_sha256, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "size": args.size, "workers": args.workers}


def main(argv=None) -> int:
    args = parse_args(argv)
    cp = import_program()
    os.chdir(ROOT)
    wl = workloads.build(args.workload, args.seed, args.size, args.workers,
                         OUT / "work" / args.workload)
    cfgs = [resolve(cp.cli, c.argv) for c in wl.round]
    warm_cfg = resolve(cp.cli, wl.warmup.argv)
    ledger = Ledger()

    clear(wl.warmup.out)
    _, rc, stdout = call(cp.cli.main, wl.warmup)
    res = workloads.check(wl.warmup, rc, stdout, warm_cfg)
    ledger.add(res.ok, "warm-up " + res.reason)

    tracer = Tracer()
    plain, traced, setup = timed_rounds(cp, wl, cfgs, args.seconds, args.trace, ledger, tracer,
                                        lambda: setup_sample(wl, warm_cfg, ledger))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = plain[0]["outcomes"]

    # correctness-only commands, untimed
    check_cfgs = [resolve(cp.cli, c.argv) for c in wl.checks]
    check_outcomes = []
    for cmd, cfg in zip(wl.checks, check_cfgs):
        clear(cmd.out)
        _, rc, stdout = call(cp.cli.main, cmd)
        res = workloads.check(cmd, rc, stdout, cfg)
        ledger.add(res.ok, res.reason)
        check_outcomes.append(res)

    # accuracy gate, untimed: seeded subset of the first round's outputs
    source_sha256 = source_digest()
    reference = Reference(cp, OUT / "refcache.json", source_sha256, args.ref_perturb)
    accuracy = []
    for point in workloads.ref_points(wl.round + wl.checks, cfgs + check_cfgs,
                                      first + check_outcomes,
                                      random.Random(f"ref:{args.workload}:{args.seed}")):
        try:
            err = reference.error(point)
        except (RuntimeError, ValueError) as exc:
            err, point_reason = float("inf"), f"{type(exc).__name__}: {exc}"
        else:
            point_reason = f"|F - F_ref| = {err:.3e} > {GATE:g}"
        ok = bool(err <= GATE)
        ledger.add(ok, f"accuracy {point.label}: {point_reason}")
        accuracy.append({"point": point.label, "abs_err": err, "ok": ok})
    reference.save()

    latencies = [x for r in plain for x in r["latencies"]]
    per_command = [statistics.median(r["latencies"][i] for r in plain)
                   for i in range(len(wl.round))]
    kernel = [x for r in plain for x in r["calibration"]]
    slowdown = calibration.slowdown(kernel, wl.calibration_statistic)
    samples = {"rounds": len(plain), "commands": len(latencies), "setup": len(setup),
               "calibration": len(kernel),
               "accuracy_points": len(accuracy), "reference_solves": reference.solves}
    if args.trace:
        probe = dynamics_probe(cp, wl, cfgs)
        overhead = (statistics.median(r["seconds"] for r in traced)
                    / statistics.median(r["seconds"] for r in plain) - 1.0) * 100.0
        work = {"steps": sum(o.fidelities * c["steps"] for o, c in zip(first, cfgs)),
                "sweep_fidelities": sum(o.fidelities for cmd, o in zip(wl.round, first)
                                        if cmd.name in ("heatmap", "scan"))}
        metrics = layer_metrics(tracer.spans, list(range(len(traced))), args.workers,
                                work, probe, overhead)
        samples.update(traced_rounds=len(traced), spans=len(tracer.spans),
                       probe_propagations=probe["samples"])
        units = LAYER_UNITS
    else:
        # end-to-end times at the reference host speed (calibration.py)
        wall_s = sum(per_command) / slowdown
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "fidelities_per_s": sum(o.fidelities for o in first) / wall_s,
            "cmd_p50_ms": float(np.percentile(per_command, 50)) * 1e3 / slowdown,
            "cmd_p90_ms": float(np.percentile(per_command, 90)) * 1e3 / slowdown,
            # a point whose reference failed counts as the largest possible error
            "fidelity_err_max": max((min(a["abs_err"], 1.0) for a in accuracy), default=1.0),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    record = {"environment": environment(args, source_sha256), "samples": samples,
              "result": result,
              "error_rate": ledger.failed / ledger.attempted, "failures": ledger.reasons,
              "accuracy": accuracy, "argv": [list(c.argv) for c in wl.round],
              "digests": [{"argv": list(c.argv), "files": o.digests}
                          for c, o in zip(wl.round + wl.checks, first + check_outcomes)],
              "per_command_s": per_command, "latencies_s": latencies, "setup_s": setup,
              "calibration": {"statistic": wl.calibration_statistic,
                              "reference_s": calibration.REFERENCE_S[wl.calibration_statistic],
                              "slowdown": slowdown, "kernel_s": kernel},
              "spans": [[s.name, s.start, s.end, s.cpu, s.parent, s.request, s.round]
                        for s in tracer.spans]}
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(f"{args.workload} seed={args.seed}: {ledger.attempted} operations, "
          f"{ledger.failed} failed; record {path}", file=sys.stderr)
    for reason in ledger.reasons:
        print(f"  failed: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "fidelities_per_s": "1/s",
                    "cmd_p50_ms": "ms", "cmd_p90_ms": "ms", "fidelity_err_max": "1",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "dynamics.propagate_ms": "ms", "dynamics.steps": "count", "dynamics.norm_drift_max": "1",
    "sweeps.heatmap_s": "s", "sweeps.curve_s": "s", "sweeps.trace_ms": "ms",
    "sweeps.self_s": "s", "sweeps.cpu_util": "ratio", "sweeps.fidelities": "count",
    "robustness.q_evals": "count", "robustness.q_ms": "ms",
    "quadrature.calls": "count", "quadrature.ms": "ms",
    "quadrature.share": "ratio", "invariants.schedule_builds": "count",
    "invariants.schedule_build_ms": "ms", "invariants.pulses_ms": "ms",
    "invariants.validate_ms": "ms", "invariants.pulses_csv_ms": "ms", "cli.self_ms": "ms",
    "sweeps.csv_write_ms": "ms", "trace.overhead_pct": "%",
}


if __name__ == "__main__":
    sys.exit(main())
