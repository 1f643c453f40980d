"""Command-line front end: design, simulate, scan, heatmap, optimize.

Configuration precedence is CLI flag > config file (`--config`, flat
`key = value` lines, each value converted with its flag's type) > built-in
default.  The effective configuration is echoed into every output file's
metadata block, and each run ends with a single machine-parsable
`key=value` summary line on stdout.  `--workers` is accepted (>= 1) and
ignored: sweeps run in one thread, and it is not echoed.

`scan` and `heatmap` fill their right-handed columns from the left-handed
propagation (the two systems are mirrors, see ``sweeps``); `simulate`
propagates each handedness.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .dynamics import DEFAULT_STEPS, Handedness, make_grid
from .errors import ChiralPulseError
from .invariants import (
    DEFAULT_CLAMP,
    ansatz_schedule,
    make_schedule,
    pulses_from_invariant,
    validate_schedule,
)
from .robustness import ErrorModel, exact_fidelity, optimize_n
from .sweeps import (
    ErrorAxis,
    SweepSpec,
    fidelity_curve,
    fidelity_heatmap,
    population_trace,
)

SCHEME_CHOICES = ("sps", "ansatz", "oss", "osd")

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
                        f"{DEFAULT_STEPS}); for design, the pulses.csv grid "
                        f"intervals (default {COMMAND_DEFAULTS['design']['steps']})")
    p.add_argument("--clamp", type=float,
                   help=f"cap on |Omega_q| in units of 1/T (default {DEFAULT_CLAMP:g})")
    p.add_argument("--workers", type=int,
                   help="accepted (>= 1) and ignored: sweeps run in one thread")
    p.add_argument("--out", help="output directory (default: current)")
    p.add_argument("--config",
                   help="flat key=value config file; CLI flags override it")
    return p


def build_parser() -> argparse.ArgumentParser:
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
                   help="propagate both handednesses and write population traces")

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
    if command == "scan":
        if cfg["points"] < 2:
            raise ValueError("points must be >= 2")
        if cfg["min"] is not None and cfg["max"] is not None and not cfg["min"] < cfg["max"]:
            raise ValueError("scan minimum must be below maximum")
    if command == "heatmap":
        for axis in ("alpha", "delta"):
            if cfg[f"{axis}_points"] < 2:
                raise ValueError(f"{axis}_points must be >= 2")
            if not cfg[f"{axis}_min"] < cfg[f"{axis}_max"]:
                raise ValueError(f"{axis} range is empty")
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


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_design(cfg: dict) -> int:
    schedule = _scheme_from_config(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    grid = make_grid(cfg["T"], cfg["steps"])
    pulses = pulses_from_invariant(schedule, grid, _absolute_clamp(cfg))
    pulses.to_csv(out / "pulses.csv", extra_metadata=_effective_metadata(cfg))
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
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    finals = {}
    for handedness in Handedness:
        trace = population_trace(schedule, handedness, steps=cfg["steps"],
                                 clamp=_absolute_clamp(cfg))
        trace.metadata.update(_effective_metadata(cfg))
        path = out / f"populations_{schedule.slug}_{handedness.value}.csv"
        trace.to_csv(path)
        finals[handedness] = trace.data[-1, 1:]
    left_p3 = finals[Handedness.LEFT][2]
    right_p1 = finals[Handedness.RIGHT][0]
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
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    kind = cfg["error"]
    lo = cfg["min"] if cfg["min"] is not None else (-0.3 if kind == "systematic" else -1.0 / cfg["T"])
    hi = cfg["max"] if cfg["max"] is not None else (0.3 if kind == "systematic" else 1.0 / cfg["T"])
    axis = ErrorAxis(kind=kind, minimum=lo, maximum=hi, points=cfg["points"])
    written = []
    for token in str(cfg["schemes"]).split(","):
        label, schedule = _parse_scheme_token(token, cfg["T"])
        spec = SweepSpec(schemes=((label, schedule),), axis1=axis, mode=cfg["mode"],
                         steps=cfg["steps"], clamp=_absolute_clamp(cfg))
        result = fidelity_curve(spec)
        result.metadata.update(_effective_metadata(cfg))
        path = out / f"{kind}_{label}_{cfg['mode']}.csv"
        result.to_csv(path)
        written.append(str(path))
    _summary("scan", {"error": kind, "points": cfg["points"],
                      "range": f"[{lo:g},{hi:g}]", "files": ";".join(written)})
    return 0


def cmd_heatmap(cfg: dict) -> int:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    schedule = _scheme_from_config(cfg)
    label = schedule.slug
    spec = SweepSpec(
        schemes=((label, schedule),),
        axis1=ErrorAxis("systematic", cfg["alpha_min"], cfg["alpha_max"], cfg["alpha_points"]),
        # the detuning flags are quoted in units of 1/T, like --clamp
        axis2=ErrorAxis("detuning", cfg["delta_min"] / cfg["T"], cfg["delta_max"] / cfg["T"],
                        cfg["delta_points"]),
        mode="exact", steps=cfg["steps"], clamp=_absolute_clamp(cfg),
    )
    result = fidelity_heatmap(spec)
    result.metadata.update(_effective_metadata(cfg))
    path = out / f"heatmap_{label}_exact.csv"
    result.to_csv(path)
    region = {k.split("_fraction_")[-1]: v for k, v in result.metadata.items()
              if "fraction" in k}
    _summary("heatmap", {"scheme": label,
                         "grid": f"{cfg['alpha_points']}x{cfg['delta_points']}",
                         **{f"region_fraction_{k}": v for k, v in region.items()},
                         "file": path})
    return 0


def cmd_optimize(cfg: dict) -> int:
    result = optimize_n(cfg["kind"], (cfg["n_min"], cfg["n_max"]),
                        tolerance=cfg["tol"], duration=cfg["T"])
    schedule = ansatz_schedule(result.n_star, cfg["T"])
    probe = (ErrorModel.systematic(0.1) if result.kind == "systematic"
             else ErrorModel.detuning(0.1 / cfg["T"]))
    cross = exact_fidelity(schedule, probe, Handedness.LEFT,
                           steps=cfg["steps"], clamp=_absolute_clamp(cfg))
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
