"""Seeded workloads and the checks every command's outputs must pass.

A workload is one *round* of `chiralpulse` CLI commands, generated from the
seed and repeated unchanged for the whole timed run (so every round does the
same work and must write byte-identical files).  The program only ever sees
the generated argv lists.

* sweep       -- one (alpha, delta) heatmap for an ansatz at a seeded n, then
                 a three-scheme detuning scan in `--mode both`; almost all the
                 time is final-fidelity propagations.
* interactive -- small `design`, `simulate` and perturbative `scan` commands
                 over seeded (T, n), every scheme in every round, a user at a
                 terminal; CSV writing, validation, full population
                 trajectories and the sensitivity quadratures.

`interactive` also carries two untimed `optimize` commands (systematic and
detuning), run once after the timed rounds: their n*, q_min and exact
checkpoint are checked, but their 2 s of single-threaded quadrature average
over a shared host's interference and are not timed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep", "interactive")

# Calibration kernels (`calibration.kernel`) after each timed command -- a
# hundred or more samples per run, at about a tenth (`sweep`) and a half
# (`interactive`) of the time the commands take -- and the statistic that
# reduces them.  Single-threaded `interactive` commands leave the second vCPU
# idle, so other tenants' work slows them as it slows the kernel, and both
# are reduced by the median.  `sweep` keeps both vCPUs busy with its own two
# threads, which shields it from much of that interference, so it follows
# the kernel's best time, the host's speed without it.
CALIBRATION = {"sweep": (4, "min"), "interactive": (1, "median")}

# Work per round.  "tiny" exists only for the harness smoke test.
SIZES = {
    "full": {"heat_points": 4, "scan_points": 5, "schemes": ("sps", "oss", "osd", "ansatz"),
             "designs": 2, "kinds": ("systematic", "detuning")},
    "tiny": {"heat_points": 3, "scan_points": 3, "schemes": ("sps", "ansatz"),
             "designs": 1, "kinds": ("systematic",)},
}

# Error axis of each scheme's perturbative scan in `interactive`, fixed so
# that the seed changes no command's cost.
PERTURBATIVE_ERROR = {"sps": "detuning", "oss": "systematic", "osd": "detuning",
                      "ansatz": "systematic"}

# README table: the optima every `optimize` must reproduce.
OPTIMA = {"systematic": (1.065, "0.521"), "detuning": (1.135, "0.0162")}

# Output points of a population trace (the library's default).
TRACE_POINTS = 201

FIDELITY_SLACK = 1e-9


@dataclass(frozen=True)
class Command:
    argv: tuple
    out: Path

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    round: tuple          # of Command, repeated for the whole run
    warmup: Command       # the set-up command, run once per fresh process
    checks: tuple = ()    # of Command, run once after the timed rounds, untimed
    calibrations: int = 1  # calibration kernels run after each timed command
    calibration_statistic: str = "median"   # reduces the kernel times: min | median


@dataclass
class Outcome:
    """Result of checking one command's exit code, summary line and files."""

    ok: bool = True
    reason: str = ""
    fidelities: int = 0       # exact fidelities / final populations, one propagation each
    digests: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)   # parsed values for the reference check


class CheckFailed(Exception):
    pass


def build(name: str, seed: int, size: str, workers: int, work_dir: Path) -> Workload:
    """Generate the workload's round from `seed`; equal seeds give equal argv lists.

    The seed draws n, T and the order of the commands, never which commands
    run or their axis sizes, so every seed does the same work.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    sz = SIZES[size]
    common = ("--workers", str(workers))
    argvs, checks = [], []
    if name == "sweep":
        # n between the two paper optima (1.065 systematic, 1.135 detuning);
        # the axes keep the CLI defaults, alpha in [-0.3, 0.3], delta in [-1, 1]/T
        n = round(rng.uniform(1.065, 1.135), 4)
        p = str(sz["heat_points"])
        argvs.append(("heatmap", "--scheme", "ansatz", "--n", f"{n}",
                      "--alpha-points", p, "--delta-points", p) + common)
        argvs.append(("scan", "--error", "detuning", "--schemes", "sps,oss,osd",
                      "--mode", "both", "--points", str(sz["scan_points"])) + common)
    else:
        # Every scheme is designed `designs` times, simulated once (sps always:
        # its clamped Omega_q kink is the hardest case for the propagator and
        # must sit under the accuracy gate) and scanned perturbatively once.
        # With two designs per simulate the median latency falls among the
        # designs (the scans are quicker) and the 90th percentile among the
        # simulates, rather than on the gap between them.
        def draw(scheme):
            args = ("--scheme", scheme, "--T", f"{round(rng.uniform(0.5, 2.0), 3)}")
            if scheme == "ansatz":
                args += ("--n", f"{round(rng.uniform(0.8, 1.4), 4)}")
            return args

        for scheme in sz["schemes"]:
            designs = [draw(scheme) for _ in range(sz["designs"])]
            argvs += [("design",) + args + common for args in designs]
            argvs.append(("simulate",) + designs[0] + common)
            token = scheme
            if scheme == "ansatz":
                token = f"ansatz:{round(rng.uniform(0.8, 1.4), 4)}"
            argvs.append(("scan", "--error", PERTURBATIVE_ERROR[scheme], "--mode",
                          "perturbative", "--schemes", token,
                          "--T", f"{round(rng.uniform(0.5, 2.0), 3)}") + common)
        rng.shuffle(argvs)
        # unit-width ranges starting on a 0.005 lattice: the 201-point coarse
        # scan then always samples the same n near the optimum, so n* and the
        # 8-decimal exact checkpoint do not jitter with the seed
        for kind in sz["kinds"]:
            lo = round(0.45 + 0.005 * rng.randint(0, 30), 3)
            checks.append(("optimize", "--kind", kind, "--n-min", f"{lo}",
                           "--n-max", f"{round(lo + 1.0, 3)}") + common)

    def commands(prefix, argv_list):
        return tuple(Command(argv + ("--out", str(work_dir / f"{prefix}{i:02d}")),
                             work_dir / f"{prefix}{i:02d}") for i, argv in enumerate(argv_list))

    warm_out = work_dir / "warmup"
    warmup = Command(("scan", "--error", "detuning", "--schemes", "sps,oss", "--points", "2",
                      "--mode", "both", "--workers", "1", "--out", str(warm_out)), warm_out)
    return Workload(round=commands("c", argvs), warmup=warmup, checks=commands("k", checks),
                    calibrations=CALIBRATION[name][0],
                    calibration_statistic=CALIBRATION[name][1])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def parse_summary(stdout: str, command: str) -> dict:
    """The `key=value` summary line every CLI run ends with."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith("command=")]
    if len(lines) != 1:
        raise CheckFailed(f"expected one summary line, found {len(lines)}")
    pairs = {}
    for token in lines[0].split():
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise CheckFailed(f"summary token {token!r} is not key=value")
        pairs[key] = value
    if pairs["command"] != command:
        raise CheckFailed(f"summary names command {pairs['command']!r}")
    return pairs


def read_csv(path: Path, columns: list, rows: int, bounded=()) -> list:
    """Rows of a metadata-block CSV; checks header, row count and finite values.

    Columns named in `bounded` are fidelities or populations and must lie in
    [0, 1] up to rounding.
    """
    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    header, data = None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            data.append([float(x) for x in line.split(",")])
    if header != columns:
        raise CheckFailed(f"{path.name}: columns {header} != {columns}")
    if len(data) != rows or any(len(r) != len(columns) for r in data):
        raise CheckFailed(f"{path.name}: {len(data)} rows, expected {rows} of {len(columns)}")
    for row in data:
        for name, v in zip(columns, row):
            if not math.isfinite(v):
                raise CheckFailed(f"{path.name}: non-finite {name}")
            if name in bounded and not -FIDELITY_SLACK <= v <= 1 + FIDELITY_SLACK:
                raise CheckFailed(f"{path.name}: {name}={v} outside [0, 1]")
    return data


def digest(path: Path) -> str:
    """sha256 of an output file, without the echoed worker count.

    Every output echoes its effective configuration, including `--workers`;
    dropping that one line makes digests comparable across worker counts.
    """
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(ln for ln in lines
                                   if not ln.startswith(b"# config.workers ="))).hexdigest()


def check(cmd: Command, rc, stdout: str, cfg: dict) -> Outcome:
    """Apply every output check for one command; never raises."""
    out = Outcome()
    try:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        summary = parse_summary(stdout, cmd.name)
        CHECKS[cmd.name](out, summary, cfg)
        out.digests = {p.name: digest(p) for p in sorted(cmd.out.iterdir()) if p.is_file()}
    except (CheckFailed, KeyError, ValueError, OSError) as exc:
        out.ok, out.reason = False, f"{cmd.name}: {type(exc).__name__}: {exc}"
    return out


def _check_design(out: Outcome, summary: dict, cfg: dict) -> None:
    if summary["validation"] != "pass":
        raise CheckFailed(f"validation={summary['validation']}")
    read_csv(Path(summary["pulses"]), ["t", "omega", "omega_q", "gamma"], cfg["steps"] + 1)
    report = Path(summary["report"]).read_text(encoding="utf-8")
    if not report.rstrip().endswith("overall: pass"):
        raise CheckFailed("validation.txt does not end with 'overall: pass'")


def _check_simulate(out: Outcome, summary: dict, cfg: dict) -> None:
    if summary["discriminated"] != "True":
        raise CheckFailed(f"discriminated={summary['discriminated']}")
    rows = min(TRACE_POINTS, cfg["steps"] + 1)
    traces = {}
    for hand in ("left", "right"):
        found = sorted(Path(cfg["out"]).glob(f"populations_*_{hand}.csv"))
        if len(found) != 1:
            raise CheckFailed(f"expected one {hand} population file, found {len(found)}")
        traces[hand] = read_csv(found[0], ["t_over_T", "p1", "p2", "p3"], rows,
                                bounded=("p1", "p2", "p3"))
    finals = {"left": (float(summary["left_p3"]), traces["left"][-1][3]),
              "right": (float(summary["right_p1"]), traces["right"][-1][1])}
    for hand, (printed, written) in finals.items():
        if abs(printed - written) > 1e-9:
            raise CheckFailed(f"{hand} summary population {printed} != CSV {written}")
    out.fidelities = 2
    out.data = {"traces": traces}


def _check_heatmap(out: Outcome, summary: dict, cfg: dict) -> None:
    columns = ["alpha", "delta", "F_exact_left", "F_exact_right"]
    rows = cfg["alpha_points"] * cfg["delta_points"]
    data = read_csv(Path(summary["file"]), columns, rows, bounded=columns[2:])
    out.fidelities = 2 * rows
    out.data = {"rows": data}


def scheme_tokens(cfg: dict) -> list:
    """(label, scheme, n) for each token of a scan's `--schemes`, as the CLI names them."""
    tokens = []
    for token in str(cfg["schemes"]).split(","):
        token = token.strip().lower()
        if token.startswith("ansatz:"):
            n = float(token.split(":", 1)[1])
            tokens.append((f"ansatz{n:g}", "ansatz", n))
        else:
            tokens.append((token, token, None))
    return tokens


def _check_scan(out: Outcome, summary: dict, cfg: dict) -> None:
    tokens = scheme_tokens(cfg)
    files = summary["files"].split(";")
    if len(files) != len(tokens):
        raise CheckFailed(f"{len(files)} files for {len(tokens)} schemes")
    axis = "alpha" if cfg["error"] == "systematic" else "delta"
    exact = cfg["mode"] in ("exact", "both")
    out.data = {"error": cfg["error"], "schemes": {}}
    for (label, scheme, n), name in zip(tokens, files):
        columns = [axis]
        if exact:
            columns += [f"F_{label}_exact_left", f"F_{label}_exact_right"]
        if cfg["mode"] in ("perturbative", "both"):
            columns.append(f"F_{label}_pert")
        rows = read_csv(Path(name), columns, cfg["points"], bounded=columns[1:3] if exact else ())
        if exact:
            out.data["schemes"][label] = (scheme, n, rows)
            out.fidelities += 2 * cfg["points"]


def _check_optimize(out: Outcome, summary: dict, cfg: dict) -> None:
    kind = summary["kind"]
    n_expected, q_expected = OPTIMA[kind]
    n_star, q_min = float(summary["n_star"]), float(summary["q_min"])
    if abs(n_star - n_expected) > cfg["tol"]:
        raise CheckFailed(f"n*={n_star} not within tol {cfg['tol']} of {n_expected}")
    digits = len(q_expected.split(".")[1].lstrip("0"))
    if f"{q_min:.{digits}g}" != q_expected:
        raise CheckFailed(f"q_min={q_min} does not round to {q_expected}")
    checkpoint = float(summary["exact_fidelity_checkpoint"])
    if not 0.0 <= checkpoint <= 1.0:
        raise CheckFailed(f"checkpoint fidelity {checkpoint} outside [0, 1]")
    out.fidelities = 1
    out.data = {"kind": kind, "n_star": n_star, "checkpoint": checkpoint}


CHECKS = {"design": _check_design, "simulate": _check_simulate, "heatmap": _check_heatmap,
          "scan": _check_scan, "optimize": _check_optimize}


# ---------------------------------------------------------------------------
# points checked against the independent reference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefPoint:
    """One output value (or trajectory) to compare with the reference integrator."""

    label: str
    scheme: str           # make_schedule kind: sps | oss | osd | ansatz
    n: float | None
    T: float
    clamp: float          # absolute cap on |Omega_q|
    alpha: float
    delta: float
    hand: str             # left | right
    observed: tuple       # final fidelity, or (t/T, p1, p2, p3) rows
    trajectory: bool = False


def ref_points(round_: tuple, cfgs: list, outcomes: list, rng: random.Random) -> list:
    """Structural worst cases plus a seeded sample of each command's outputs.

    Always checked: the heatmap rows at the extreme alpha and delta nearest 0
    (where the 4000-step midpoint rule's error peaks), the sps scan ends, every
    optimize checkpoint and the sps simulate trajectories.
    """
    points = []
    for cmd, cfg, res in zip(round_, cfgs, outcomes):
        if not res.ok:
            continue
        T, clamp = cfg["T"], cfg["clamp"] / cfg["T"]
        if cmd.name == "heatmap":
            rows = res.data["rows"]
            scheme, n = cfg["scheme"], cfg["n"]
            near0 = min(abs(r[1]) for r in rows)
            picks = [(r, h) for r in rows if r[0] in (rows[0][0], rows[-1][0])
                     and abs(r[1]) == near0 for h in ("left", "right")]
            picks += [(rng.choice(rows), rng.choice(("left", "right"))) for _ in range(2)]
            for r, h in picks:
                points.append(RefPoint(f"heatmap a={r[0]:g} d={r[1]:g} {h}", scheme, n, T,
                                       clamp, r[0], r[1], h, (r[2 if h == "left" else 3],)))
        elif cmd.name == "scan" and res.data["schemes"]:
            sweep = res.data["schemes"]
            picks = []
            if "sps" in sweep:
                picks += [("sps", sweep["sps"][2][0], "left"),
                          ("sps", sweep["sps"][2][-1], "right")]
            for _ in range(2):
                label = rng.choice(sorted(sweep))
                picks.append((label, rng.choice(sweep[label][2]), rng.choice(("left", "right"))))
            for label, r, h in picks:
                scheme, n, _ = sweep[label]
                alpha = r[0] if res.data["error"] == "systematic" else 0.0
                delta = r[0] if res.data["error"] == "detuning" else 0.0
                points.append(RefPoint(f"scan {label} {r[0]:g} {h}", scheme, n, T, clamp,
                                       alpha, delta, h, (r[1 if h == "left" else 2],)))
        elif cmd.name == "optimize":
            d = res.data
            alpha, delta = (0.1, 0.0) if d["kind"] == "systematic" else (0.0, 0.1 / T)
            points.append(RefPoint(f"optimize {d['kind']} checkpoint", "ansatz", d["n_star"],
                                   T, clamp, alpha, delta, "left", (d["checkpoint"],)))
    sims = [(cfg, res) for cmd, cfg, res in zip(round_, cfgs, outcomes)
            if cmd.name == "simulate" and res.ok]
    chosen = [s for s in sims if s[0]["scheme"] == "sps"][:1]
    others = [s for s in sims if s[0]["scheme"] != "sps"]
    chosen += rng.sample(others, min(1, len(others)))
    for cfg, res in chosen:
        for h in ("left", "right"):
            points.append(RefPoint(f"simulate {cfg['scheme']} T={cfg['T']:g} {h}",
                                   cfg["scheme"], cfg["n"], cfg["T"], cfg["clamp"] / cfg["T"],
                                   0.0, 0.0, h, tuple(map(tuple, res.data["traces"][h])),
                                   trajectory=True))
    return points
