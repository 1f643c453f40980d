#!/usr/bin/env python3
"""Smoke test of the benchmark harness at tiny sizes (about four minutes).

    python3 bench/smoke.py

It runs the command named in BENCHMARK.json and checks that:

1. every workload, untraced and traced, prints as its last line one JSON
   object with exactly `correct`, `attempted`, `failed` and `metrics`, whose
   metrics are exactly the end-to-end (or per-layer) metrics BENCHMARK.json
   names, each with its unit, and that no operation failed;
2. the accuracy gate trips (failed operations, `correct` false) when every
   reference value is perturbed by 1e-5;
3. `sweep` output digests are identical at `--workers 1` and at
   `--workers nproc`, and across two runs of the same seed;
4. in a directory holding only BENCHMARK.json and the benchmark's files the
   command exits non-zero and prints no result.

Exits non-zero, listing the problems, if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NPROC = len(os.sched_getaffinity(0))
TIMEOUT_S = 300
problems = []


def run(workload, trace=0, workers=NPROC, extra=(), cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny",
                             "--workers", str(workers), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def digests(workload):
    """Per-command output digests from the run record of the last untraced run."""
    path = ROOT / ".bench_out" / "records" / f"{workload}-seed7-trace0.json"
    return [d["files"] for d in json.loads(path.read_text(encoding="utf-8"))["digests"]]


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def check_result(label, proc, result, metric_specs):
    if result is None:
        expect(False, f"{label}: exit {proc.returncode}, stderr {proc.stderr.strip()[-300:]}")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct={result['correct']} attempted={result['attempted']} "
           f"failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in metric_specs}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    expect(got == wanted, f"{label}: metrics and units match BENCHMARK.json"
           + ("" if got == wanted else f" (diff {set(got.items()) ^ set(wanted.items())})"))
    expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
           f"{label}: every metric value is a number")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc, result = run(workload, trace)
            check_result(f"{workload} trace={trace}", proc, result, specs)

    first = digests("sweep")
    run("sweep")
    expect(digests("sweep") == first, "sweep digests identical across two runs")
    run("sweep", workers=1)
    expect(digests("sweep") == first,
           f"sweep digests identical at --workers 1 and --workers {NPROC}")

    proc, result = run("sweep", extra=("--ref-perturb", "1e-5"))
    expect(result is not None and result["failed"] > 0 and result["correct"] is False,
           "accuracy gate trips on a reference perturbed by 1e-5"
           + ("" if result is None else f" (failed={result['failed']})"))

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run("sweep", cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the program: exit {proc.returncode}, stdout {proc.stdout.strip()[:80]!r}")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
