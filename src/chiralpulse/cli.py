"""Command-line front end: design, simulate, scan, heatmap, optimize.

``build_parser`` states each command's settings once, each flag with its
default.  Every command takes `--T --steps --clamp --workers --out
--config`; `--scheme` and `--n` belong to `design`, `simulate` and
`heatmap`, and `--n` only to `--scheme ansatz`.  A command's parser
rejects a flag it does not take under its own usage.
The keys of a `--config` file's flat `key = value` lines are the command's
own flags: ``main`` parses each as `--key=value` ahead of the CLI flags, so
it gets its flag's type and choices, and precedence is CLI flag > config
file > the flag's default.  Every library function takes its steps, clamp,
mode and n range from its caller.
The effective configuration is echoed into every output file's
metadata block, and each run ends with a single machine-parsable
`key=value` summary line on stdout.  `--workers` is accepted (>= 1) and
ignored: sweeps run in one thread, and it is not echoed.  Each command
computes its results before it creates `--out`, so a rejected run leaves no
directory or file behind.

`scan` calls ``fidelity_curve`` once per scheme of `--schemes`, each writing
one file named by ``InvariantSchedule.name``, so a scheme listed twice is
rejected before anything is computed;
`heatmap` calls ``fidelity_heatmap`` and `optimize` checks its optimum with
``exact_fidelities``.  `scan` and `heatmap` build every error axis in
``_error_axis``, which holds all the axis checks; their detuning bounds,
like `--clamp`, are in units of 1/T.  The two handednesses are
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

DEFAULT_STEPS = 400     # CF4 steps on [0, T] of every propagating command
DEFAULT_CLAMP = 100.0   # cap on |Omega_q| in units of 1/T
HEATMAP_N = 1.10        # the n of the heatmap's default scheme, the ansatz

_CF4_STEPS_HELP = ("fourth-order (CF4) propagation steps on [0,T] (default %(default)s): "
                   "equal for the ansatz schemes; for sps one step to the clamp switch, "
                   "then steps growing with t")


def _run_flags(steps: int = DEFAULT_STEPS, steps_help: str = _CF4_STEPS_HELP):
    # built afresh for each command: argparse shares a parent's actions among
    # its children, so a default set for one command would reach the others
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--T", type=float, default=1.0,
                   help="pulse duration T; frequencies are in 1/T (default %(default)s)")
    p.add_argument("--steps", type=int, default=steps, help=steps_help)
    p.add_argument("--clamp", type=float, default=DEFAULT_CLAMP,
                   help="cap on |Omega_q| in units of 1/T (default %(default)s)")
    p.add_argument("--workers", type=int, default=1,
                   help="ignored (>= 1): sweeps run in one thread (default %(default)s)")
    p.add_argument("--out", default=".", help="output directory (default %(default)s)")
    p.add_argument("--config",
                   help="flat key = value file of this command's flags; CLI flags override it")
    return p


def _scheme_flags(scheme: str = "sps", n: float | None = None):
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--scheme", choices=("sps", "ansatz", "oss", "osd"), default=scheme,
                   help="schedule family; oss/osd are the ansatz at n=1.07/1.12 "
                        "(default %(default)s)")
    p.add_argument("--n", type=float, default=n,
                   help="ansatz harmonic weight n (dimensionless), only with --scheme ansatz"
                        + (", which requires it" if n is None else " (default %(default)s)"))
    return p


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it rejects the arguments it does not know under its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `chiralpulse` argument parser, built once per process.

    Every call returns the same parser.  Parsing leaves it unchanged (each
    ``parse_args`` fills a fresh namespace), so every ``main`` call shares
    it; a caller must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="chiralpulse",
        description="Invariant-based pulse design and chiral-discrimination simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def command(name, help, *parents):
        # flags are spelled in full: scan's `--scheme` is not its `--schemes`
        return sub.add_parser(name, parents=list(parents), help=help, allow_abbrev=False)

    command("design", "synthesize pulses and write pulses.csv + validation.txt",
            _scheme_flags(),
            _run_flags(4000, "equal pulses.csv grid intervals on [0,T] (default %(default)s)"))
    command("simulate", "write both handednesses' population traces and a verdict line",
            _scheme_flags(), _run_flags())

    scan = command("scan", "fidelity vs one error amplitude, one CSV per scheme", _run_flags())
    scan.add_argument("--error", choices=("systematic", "detuning"), default="systematic",
                      help="swept error kind (default %(default)s)")
    scan.add_argument("--schemes", default="sps,oss",
                      help="comma list: sps, oss, osd, or ansatz:<n> (default %(default)s)")
    scan.add_argument("--mode", choices=("exact", "perturbative", "both"), default="both",
                      help="fidelity evaluation mode (default %(default)s)")
    scan.add_argument("--points", type=int, default=101, help="axis points (default %(default)s)")
    scan.add_argument("--min", type=float,
                      help="axis minimum, detuning in 1/T (default -0.3 systematic, -1 detuning)")
    scan.add_argument("--max", type=float,
                      help="axis maximum, detuning in 1/T (default +0.3 systematic, +1 detuning)")

    heat = command("heatmap", "exact fidelity on an (alpha, delta) grid",
                   _scheme_flags("ansatz", HEATMAP_N), _run_flags())
    heat.add_argument("--alpha-min", type=float, default=-0.3,
                      help="systematic amplitude minimum (dimensionless, default %(default)s)")
    heat.add_argument("--alpha-max", type=float, default=0.3,
                      help="systematic amplitude maximum (default %(default)s)")
    heat.add_argument("--alpha-points", type=int, default=101,
                      help="systematic axis points (default %(default)s)")
    heat.add_argument("--delta-min", type=float, default=-1.0,
                      help="detuning minimum in 1/T (default %(default)s)")
    heat.add_argument("--delta-max", type=float, default=1.0,
                      help="detuning maximum in 1/T (default %(default)s)")
    heat.add_argument("--delta-points", type=int, default=101,
                      help="detuning axis points (default %(default)s)")

    opt = command("optimize", "minimize an error sensitivity over the ansatz weight n",
                  _run_flags())
    opt.add_argument("--kind", choices=("systematic", "detuning"), default="systematic",
                     help="sensitivity to minimize (default %(default)s)")
    opt.add_argument("--n-min", type=float, default=0.5, help="scan start (default %(default)s)")
    opt.add_argument("--n-max", type=float, default=1.5, help="scan end (default %(default)s)")
    opt.add_argument("--tol", type=float, default=1e-3,
                     help="bracket width for the refinement (default %(default)s)")
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


def _config_flags(args: argparse.Namespace) -> list:
    """The `--config` file as `--key=value` flags; a `none` value leaves the default."""
    values = read_config_file(args.config)
    unknown = set(values) - (set(vars(args)) - {"command", "config"})
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    # the `=` keeps a value such as `-1e308` a value
    return [f"--{key.replace('_', '-')}={text}" for key, text in values.items() if text]


def resolve_config(args: argparse.Namespace) -> dict:
    """The command's settings as parsed into `args`, once checked."""
    cfg = {key: value for key, value in vars(args).items() if key not in ("command", "config")}

    def positive(key):
        value = cfg[key]
        if not np.isfinite(value) or value <= 0:
            raise ValueError(f"{key} must be positive and finite, got {value}")

    positive("T")
    positive("clamp")
    if cfg["steps"] < 2:
        raise ValueError(f"steps must be >= 2, got {cfg['steps']}")
    if cfg["workers"] < 1:
        raise ValueError(f"workers must be >= 1, got {cfg['workers']}")
    if "scheme" in cfg:
        if cfg["scheme"] == "ansatz":
            if cfg["n"] is None or not np.isfinite(cfg["n"]):
                raise ValueError("scheme 'ansatz' requires a finite --n")
        elif cfg["n"] is not None:
            # a given --n is a new float: only the heatmap's default n, for
            # its default ansatz, is the HEATMAP_N object on its flag
            if cfg["n"] is not HEATMAP_N:
                raise ValueError(f"--n is the ansatz weight; scheme '{cfg['scheme']}' "
                                 "takes no --n")
            cfg["n"] = None
    if args.command == "optimize":
        if not cfg["n_min"] < cfg["n_max"]:
            raise ValueError("n_min must be below n_max")
        positive("tol")
    return cfg


def _effective_metadata(cfg: dict) -> dict:
    # --workers changes nothing, so it is not echoed
    return {f"config.{k}": v for k, v in sorted(cfg.items())
            if v is not None and k != "workers"}


def _summary(command: str, pairs: dict) -> None:
    print(" ".join([f"command={command}"] + [f"{k}={v}" for k, v in pairs.items()]))


def _scheme_from_config(cfg: dict):
    return make_schedule(cfg["scheme"], cfg["T"], cfg["n"])


def _parse_scheme_token(token: str, duration: float):
    key = token.strip().lower()
    if key.startswith("ansatz:"):
        try:
            n = float(key.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"scheme {token.strip()!r}: n must be a number") from None
        return make_schedule("ansatz", duration, n)
    return make_schedule(key, duration)


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
        "scheme": schedule.name, "T": cfg["T"], "steps": cfg["steps"],
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
        trace.to_csv(out / f"populations_{schedule.name}_{handedness.value}.csv",
                     _effective_metadata(cfg))
    left_p3 = traces[Handedness.LEFT].column("p3")[-1]
    right_p1 = traces[Handedness.RIGHT].column("p1")[-1]
    print(f"final populations: left -> |3> at P3={left_p3:.6f}, "
          f"right -> |1> at P1={right_p1:.6f}")
    print("discrimination verdict: L->|3>, R->|1>"
          if min(left_p3, right_p1) >= 0.999 else
          "discrimination verdict: incomplete transfer")
    _summary("simulate", {
        "scheme": schedule.name, "T": cfg["T"], "steps": cfg["steps"],
        "left_p3": f"{left_p3:.9f}", "right_p1": f"{right_p1:.9f}",
        "discriminated": min(left_p3, right_p1) >= 0.999,
    })
    return 0


def cmd_scan(cfg: dict) -> int:
    kind = cfg["error"]
    lo = cfg["min"] if cfg["min"] is not None else (-0.3 if kind == "systematic" else -1.0)
    hi = cfg["max"] if cfg["max"] is not None else (0.3 if kind == "systematic" else 1.0)
    if kind == "detuning":      # quoted in units of 1/T, like the heatmap's and --clamp
        lo, hi = lo / cfg["T"], hi / cfg["T"]
    amplitudes = _error_axis("alpha" if kind == "systematic" else "delta", lo, hi, cfg["points"])
    tokens = str(cfg["schemes"]).split(",")
    schedules = [_parse_scheme_token(token, cfg["T"]) for token in tokens]
    if len({schedule.name for schedule in schedules}) < len(tokens):
        raise ValueError(f"schemes {cfg['schemes']} lists a scheme twice; "
                         "each scheme writes one file")
    # every scheme is computed before any file is written
    results = {schedule.name: fidelity_curve(schedule, kind, amplitudes, cfg["mode"],
                                             cfg["steps"], _absolute_clamp(cfg))
               for schedule in schedules}
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, result in results.items():
        path = out / f"{kind}_{name}_{cfg['mode']}.csv"
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
    result = fidelity_heatmap(schedule, alphas, deltas, cfg["steps"], _absolute_clamp(cfg))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"heatmap_{schedule.name}_exact.csv"
    result.to_csv(path, _effective_metadata(cfg))
    region = {k.split("_fraction_")[-1]: v for k, v in result.metadata.items()
              if "fraction" in k}
    _summary("heatmap", {"scheme": schedule.name,
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file values go before the CLI flags, and argparse keeps a flag's last value
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_flags(args), *argv[at:]])
        return COMMANDS[args.command](resolve_config(args))
    except (ChiralPulseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
