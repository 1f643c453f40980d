"""Command-line front end: design, simulate, scan, heatmap, optimize.

Configuration precedence is CLI flag > config file (`--config`, flat
`key = value` lines, each value converted with its flag's type) > built-in
default.  The built-in defaults live only here (``DEFAULT_STEPS``,
``DEFAULT_CLAMP``, ``COMMON_DEFAULTS`` and ``COMMAND_DEFAULTS``): every
library function takes its steps, clamp, mode and n range from its caller.
The effective configuration is echoed into every output file's
metadata block, and each run ends with a single machine-parsable
`key=value` summary line on stdout.  `--workers` is accepted (>= 1) and
ignored: sweeps run in one thread, and it is not echoed.  Each command
computes its results before it creates `--out`, so a rejected run leaves no
directory or file behind.

`scan` calls ``fidelity_curve`` once per scheme of `--schemes`, each writing
one file, so a scheme listed twice is rejected before anything is computed;
`heatmap` calls ``fidelity_heatmap`` and `optimize` checks its optimum with
``exact_fidelities``.  `scan` and `heatmap` build every error axis in
``_error_axis``, which holds all the axis checks.  The two handednesses are
mirrors (see ``sweeps``), so every command propagates the left-handed system
only: `scan` and `heatmap` copy its fidelities into their right-handed
columns, and `simulate` writes its right-handed trace as the left one with
p1 and p3 swapped, from one ``population_trace`` call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .dynamics import Handedness, make_grid
from .errors import ChiralPulseError
from .invariants import (
    ansatz_schedule,
    make_schedule,
    pulses_from_invariant,
    validate_schedule,
)
from .robustness import exact_fidelities, optimize_n
from .sweeps import fidelity_curve, fidelity_heatmap, population_trace

SCHEME_CHOICES = ("sps", "ansatz", "oss", "osd")
DEFAULT_STEPS = 400     # CF4 steps on [0, T] of every propagating command
DEFAULT_CLAMP = 100.0   # cap on |Omega_q| in units of 1/T

COMMON_DEFAULTS = {
    "scheme": "sps",
    "n": None,
    "T": 1.0,
    "steps": DEFAULT_STEPS,
    "clamp": DEFAULT_CLAMP,
    "workers": 1,
    "out": ".",
}

COMMAND_DEFAULTS = {
    # design exports pulse samples and propagates nothing: its grid stays at
    # 4000 intervals, so pulses.csv keeps its 4001 rows
    "design": {"steps": 4000},
    "simulate": {},
    "scan": {"error": "systematic", "schemes": "sps,oss", "mode": "both",
             "points": 101, "min": None, "max": None},
    "heatmap": {"scheme": "ansatz", "n": 1.10,
                "alpha_min": -0.3, "alpha_max": 0.3, "alpha_points": 101,
                "delta_min": -1.0, "delta_max": 1.0, "delta_points": 101},
    "optimize": {"kind": "systematic", "n_min": 0.5, "n_max": 1.5, "tol": 1e-3},
}


def _common_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--scheme", choices=SCHEME_CHOICES,
                   help="schedule family; oss/osd are the ansatz at n=1.07/1.12")
    p.add_argument("--n", type=float,
                   help="ansatz harmonic weight n (dimensionless)")
    p.add_argument("--T", type=float, dest="T",
                   help="pulse duration T (time unit; frequencies are in 1/T)")
    p.add_argument("--steps", type=int,
                   help=f"fourth-order (CF4) propagation steps on [0,T] (default "
                        f"{DEFAULT_STEPS}): equal for the ansatz schemes; for sps one "
                        f"step to the clamp switch, then steps growing with t; for "
                        f"design, the equal pulses.csv grid intervals (default "
                        f"{COMMAND_DEFAULTS['design']['steps']})")
    p.add_argument("--clamp", type=float,
                   help=f"cap on |Omega_q| in units of 1/T (default {DEFAULT_CLAMP:g})")
    p.add_argument("--workers", type=int,
                   help="accepted (>= 1) and ignored: sweeps run in one thread")
    p.add_argument("--out", help="output directory (default: current)")
    p.add_argument("--config",
                   help="flat key=value config file; CLI flags override it")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `chiralpulse` argument parser, built once per process.

    Every call returns the same parser.  Parsing leaves it unchanged (each
    ``parse_args`` fills a fresh namespace), so ``main`` and ``_flag_types``
    share it; a caller must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="chiralpulse",
        description="Invariant-based pulse design and chiral-discrimination simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parser()

    sub.add_parser("design", parents=[common],
                   help="synthesize pulses and write pulses.csv + validation.txt")
    sub.add_parser("simulate", parents=[common],
                   help="write both handednesses' population traces and a verdict line")

    scan = sub.add_parser("scan", parents=[common],
                          help="fidelity vs one error amplitude, one CSV per scheme")
    scan.add_argument("--error", choices=("systematic", "detuning"),
                      help="swept error kind (default systematic)")
    scan.add_argument("--schemes",
                      help="comma list: sps, oss, osd, or ansatz:<n> (default sps,oss)")
    scan.add_argument("--mode", choices=("exact", "perturbative", "both"),
                      help="fidelity evaluation mode (default both)")
    scan.add_argument("--points", type=int, help="axis points (default 101)")
    scan.add_argument("--min", type=float, dest="min",
                      help="axis minimum (default -0.3 systematic, -1/T detuning)")
    scan.add_argument("--max", type=float, dest="max",
                      help="axis maximum (default +0.3 systematic, +1/T detuning)")

    heat = sub.add_parser("heatmap", parents=[common],
                          help="exact fidelity on an (alpha, delta) grid")
    heat.add_argument("--alpha-min", type=float, dest="alpha_min",
                      help="systematic amplitude minimum (dimensionless, default -0.3)")
    heat.add_argument("--alpha-max", type=float, dest="alpha_max",
                      help="systematic amplitude maximum (default +0.3)")
    heat.add_argument("--alpha-points", type=int, dest="alpha_points",
                      help="systematic axis points (default 101)")
    heat.add_argument("--delta-min", type=float, dest="delta_min",
                      help="detuning minimum in 1/T (default -1)")
    heat.add_argument("--delta-max", type=float, dest="delta_max",
                      help="detuning maximum in 1/T (default +1)")
    heat.add_argument("--delta-points", type=int, dest="delta_points",
                      help="detuning axis points (default 101)")

    opt = sub.add_parser("optimize", parents=[common],
                         help="minimize an error sensitivity over the ansatz weight n")
    opt.add_argument("--kind", choices=("systematic", "detuning"),
                     help="sensitivity to minimize (default systematic)")
    opt.add_argument("--n-min", type=float, dest="n_min", help="scan start (default 0.5)")
    opt.add_argument("--n-max", type=float, dest="n_max", help="scan end (default 1.5)")
    opt.add_argument("--tol", type=float,
                     help="bracket width for the refinement (default 1e-3)")
    return parser


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def read_config_file(path: str) -> dict:
    """Flat `key = value` lines as {key: text}; `none` or an empty value is None."""
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {raw!r} is not key = value")
        key, _, value = line.partition("=")
        value = value.strip()
        values[key.strip().replace("-", "_")] = None if value.lower() in ("none", "") else value
    return values


def _flag_types(command: str) -> dict:
    """{dest: the `type=` its flag declares} for every flag of `command`."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.type for a in sub.choices[command]._actions}


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit CLI flags, then validate."""
    cfg = dict(COMMON_DEFAULTS)
    cfg.update(COMMAND_DEFAULTS[args.command])
    file_values = read_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(cfg)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    types = _flag_types(args.command) if file_values else {}
    for key, text in file_values.items():
        if text is None:        # `none` leaves the default in place
            continue
        flag_type = types[key] or str
        try:
            cfg[key] = flag_type(text)
        except ValueError:
            raise ValueError(f"config {key}: invalid {flag_type.__name__} "
                             f"value: {text!r}") from None
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key] = value
    _validate_config(args.command, cfg)
    return cfg


def _validate_config(command: str, cfg: dict) -> None:
    def positive(key):
        value = cfg[key]
        if value is None or not np.isfinite(value) or value <= 0:
            raise ValueError(f"{key} must be positive and finite, got {value}")

    positive("T")
    positive("clamp")
    if cfg["steps"] < 2:
        raise ValueError(f"steps must be >= 2, got {cfg['steps']}")
    if cfg["workers"] < 1:
        raise ValueError(f"workers must be >= 1, got {cfg['workers']}")
    if cfg["scheme"] == "ansatz" and command != "scan":
        if cfg["n"] is None or not np.isfinite(cfg["n"]):
            raise ValueError("scheme 'ansatz' requires a finite --n")
    if command == "optimize":
        if not cfg["n_min"] < cfg["n_max"]:
            raise ValueError("n_min must be below n_max")
        positive("tol")


def _effective_metadata(cfg: dict) -> dict:
    # --workers changes nothing, so it is not echoed
    return {f"config.{k}": v for k, v in sorted(cfg.items())
            if v is not None and k != "workers"}


def _summary(command: str, pairs: dict) -> None:
    print(" ".join([f"command={command}"] + [f"{k}={v}" for k, v in pairs.items()]))


def _scheme_from_config(cfg: dict):
    return make_schedule(cfg["scheme"], cfg["T"], cfg.get("n"))


def _parse_scheme_token(token: str, duration: float):
    token = token.strip().lower()
    if token.startswith("ansatz:"):
        n = float(token.split(":", 1)[1])
        return f"ansatz{n:g}", make_schedule("ansatz", duration, n)
    return token, make_schedule(token, duration)


def _absolute_clamp(cfg: dict) -> float:
    # the flag is quoted in units of 1/T
    return cfg["clamp"] / cfg["T"]


def _error_axis(column: str, lo: float, hi: float, points: int) -> np.ndarray:
    """``np.linspace(lo, hi, points)``, whose ends are the bounds exactly, once checked.

    `column` (alpha or delta) names the axis in the messages.
    """
    if points < 2:
        raise ValueError(f"{column} axis needs at least 2 points, got {points}")
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite axis is rejected next
        values = np.linspace(lo, hi, points)
    if not np.isfinite(values).all():
        raise ValueError(f"{column} axis [{lo:g}, {hi:g}] is not finite: "
                         "its bounds and their span must be finite")
    if not lo < hi:
        raise ValueError(f"{column} axis [{lo:g}, {hi:g}] is empty: "
                         "its minimum must be below its maximum")
    return values


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_design(cfg: dict) -> int:
    schedule = _scheme_from_config(cfg)
    grid = make_grid(cfg["T"], cfg["steps"])
    pulses = pulses_from_invariant(schedule, grid, _absolute_clamp(cfg))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    pulses.to_csv(out / "pulses.csv", _effective_metadata(cfg))
    report = validate_schedule(schedule, clamp=_absolute_clamp(cfg))
    (out / "validation.txt").write_text(report.to_text(), encoding="utf-8")
    _summary("design", {
        "scheme": schedule.label, "T": cfg["T"], "steps": cfg["steps"],
        "clamp": cfg["clamp"], "validation": "pass" if report.all_passed else "fail",
        "pulses": out / "pulses.csv", "report": out / "validation.txt",
    })
    return 0 if report.all_passed else 1


def cmd_simulate(cfg: dict) -> int:
    schedule = _scheme_from_config(cfg)
    traces = population_trace(schedule, steps=cfg["steps"], clamp=_absolute_clamp(cfg))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    for handedness, trace in traces.items():
        trace.to_csv(out / f"populations_{schedule.slug}_{handedness.value}.csv",
                     _effective_metadata(cfg))
    left_p3 = traces[Handedness.LEFT].column("p3")[-1]
    right_p1 = traces[Handedness.RIGHT].column("p1")[-1]
    print(f"final populations: left -> |3> at P3={left_p3:.6f}, "
          f"right -> |1> at P1={right_p1:.6f}")
    print("discrimination verdict: L->|3>, R->|1>"
          if min(left_p3, right_p1) >= 0.999 else
          "discrimination verdict: incomplete transfer")
    _summary("simulate", {
        "scheme": schedule.label, "T": cfg["T"], "steps": cfg["steps"],
        "left_p3": f"{left_p3:.9f}", "right_p1": f"{right_p1:.9f}",
        "discriminated": min(left_p3, right_p1) >= 0.999,
    })
    return 0


def cmd_scan(cfg: dict) -> int:
    kind = cfg["error"]
    lo = cfg["min"] if cfg["min"] is not None else (-0.3 if kind == "systematic" else -1.0 / cfg["T"])
    hi = cfg["max"] if cfg["max"] is not None else (0.3 if kind == "systematic" else 1.0 / cfg["T"])
    amplitudes = _error_axis("alpha" if kind == "systematic" else "delta", lo, hi, cfg["points"])
    tokens = str(cfg["schemes"]).split(",")
    schemes = dict(_parse_scheme_token(token, cfg["T"]) for token in tokens)
    if len(schemes) < len(tokens):
        raise ValueError(f"schemes {cfg['schemes']} lists a scheme twice; "
                         "each scheme writes one file")
    # every scheme is computed before any file is written
    results = [(label, fidelity_curve(label, schedule, kind, amplitudes, cfg["mode"],
                                      cfg["steps"], _absolute_clamp(cfg)))
               for label, schedule in schemes.items()]
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for label, result in results:
        path = out / f"{kind}_{label}_{cfg['mode']}.csv"
        result.to_csv(path, _effective_metadata(cfg))
        written.append(str(path))
    _summary("scan", {"error": kind, "points": cfg["points"],
                      "range": f"[{lo:g},{hi:g}]", "files": ";".join(written)})
    return 0


def cmd_heatmap(cfg: dict) -> int:
    alphas = _error_axis("alpha", cfg["alpha_min"], cfg["alpha_max"], cfg["alpha_points"])
    # the detuning flags are quoted in units of 1/T, like --clamp
    deltas = _error_axis("delta", cfg["delta_min"] / cfg["T"], cfg["delta_max"] / cfg["T"],
                         cfg["delta_points"])
    schedule = _scheme_from_config(cfg)
    label = schedule.slug
    result = fidelity_heatmap(schedule, alphas, deltas, cfg["steps"], _absolute_clamp(cfg))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"heatmap_{label}_exact.csv"
    result.to_csv(path, _effective_metadata(cfg))
    region = {k.split("_fraction_")[-1]: v for k, v in result.metadata.items()
              if "fraction" in k}
    _summary("heatmap", {"scheme": label,
                         "grid": f"{cfg['alpha_points']}x{cfg['delta_points']}",
                         **{f"region_fraction_{k}": v for k, v in region.items()},
                         "file": path})
    return 0


def cmd_optimize(cfg: dict) -> int:
    result = optimize_n(cfg["kind"], (cfg["n_min"], cfg["n_max"]), cfg["tol"], cfg["T"])
    schedule = ansatz_schedule(result.n_star, cfg["T"])
    alpha, delta = (0.1, 0.0) if result.kind == "systematic" else (0.0, 0.1 / cfg["T"])
    cross = exact_fidelities(schedule, alpha, delta, cfg["steps"], _absolute_clamp(cfg))[0]
    print(f"optimal n for {result.kind} sensitivity: n* = {result.n_star:.4f}, "
          f"q_min = {result.q_min:.6g}")
    _summary("optimize", {
        "kind": result.kind, "n_star": f"{result.n_star:.6f}",
        "q_min": f"{result.q_min:.8g}",
        "exact_fidelity_checkpoint": f"{cross:.8f}",
        "checkpoint_error": "alpha=0.1" if result.kind == "systematic" else "delta=0.1/T",
    })
    return 0


COMMANDS = {
    "design": cmd_design,
    "simulate": cmd_simulate,
    "scan": cmd_scan,
    "heatmap": cmd_heatmap,
    "optimize": cmd_optimize,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except (ChiralPulseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
