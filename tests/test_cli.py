import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chiralpulse
from chiralpulse import invariants, sweeps
from chiralpulse.cli import build_parser, main, read_config_file
from chiralpulse.dynamics import propagate
from chiralpulse.invariants import _checked_pulses


def run_cli(args):
    return main(args)


def read_data_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line[0].isalpha():
            continue
        rows.append([float(x) for x in line.split(",")])
    return np.asarray(rows)


def test_design_writes_pulses_and_validation(tmp_path, capsys):
    code = run_cli(["design", "--scheme", "sps", "--T", "1",
                    "--steps", "800", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "command=design" in out and "validation=pass" in out
    pulses = read_data_rows(tmp_path / "pulses.csv")
    np.testing.assert_allclose(pulses[:, 1], np.pi / 2, atol=1e-12)  # constant omega
    report = (tmp_path / "validation.txt").read_text()
    assert "overall: pass" in report


@pytest.mark.parametrize("scheme, T", [("osd", "3e-7"), ("sps", "1e-8"), ("oss", "1e-8"),
                                       ("osd", "1e-8")])
def test_design_validates_at_short_durations(tmp_path, capsys, scheme, T):
    # the invariant residual is a rate; validation.txt judges T times it, so a
    # 300 ns pulse in seconds passes as its T = 1 counterpart does
    assert run_cli(["design", "--scheme", scheme, "--T", T, "--out", str(tmp_path)]) == 0
    assert "validation=pass" in capsys.readouterr().out
    report = (tmp_path / "validation.txt").read_text()
    assert "dynamical invariant          pass" in report
    assert "(T*(dI/dt + (1/i)[I,H]) on unclamped interior)" in report
    assert "overall: pass" in report


def test_design_ansatz_validates(tmp_path, capsys):
    code = run_cli(["design", "--scheme", "ansatz", "--n", "1.07",
                    "--T", "1", "--steps", "500", "--out", str(tmp_path)])
    assert code == 0
    assert "validation=pass" in capsys.readouterr().out


def test_design_grid_default_is_4000_intervals(tmp_path, capsys):
    # design exports pulse samples and propagates nothing, so its grid keeps
    # 4000 intervals while propagating commands default to DEFAULT_STEPS
    assert run_cli(["design", "--out", str(tmp_path)]) == 0
    assert "steps=4000" in capsys.readouterr().out
    assert len(read_data_rows(tmp_path / "pulses.csv")) == 4001
    assert "# config.steps = 4000" in (tmp_path / "pulses.csv").read_text()


def test_design_rejects_malformed_n(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["design", "--scheme", "ansatz", "--n", "abc", "--out", str(tmp_path)])
    assert excinfo.value.code != 0
    assert not (tmp_path / "pulses.csv").exists()


def test_design_requires_n_for_ansatz(tmp_path):
    assert run_cli(["design", "--scheme", "ansatz", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "pulses.csv").exists()


def test_simulate_discriminates(tmp_path, capsys):
    code = run_cli(["simulate", "--scheme", "sps", "--T", "1",
                    "--steps", "2000", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "L->|3>, R->|1>" in out
    assert "discriminated=True" in out
    left = read_data_rows(tmp_path / "populations_sps_left.csv")
    right = read_data_rows(tmp_path / "populations_sps_right.csv")
    assert left[-1, 3] > 0.999 and right[-1, 1] > 0.999


def test_simulate_ansatz_n(tmp_path, capsys):
    code = run_cli(["simulate", "--scheme", "ansatz", "--n", "1.10",
                    "--steps", "2000", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "discriminated=True" in out


def test_simulate_samples_and_propagates_once(tmp_path, capsys, monkeypatch):
    # the right-handed trace mirrors the left-handed propagation, so one
    # simulate samples the pulses at the 800 Gauss nodes once and propagates once
    samples, propagations = [], []

    def counting_pulses(schedule, times, *args, **kwargs):
        samples.append(len(times))
        return _checked_pulses(schedule, times, *args, **kwargs)

    def counting_propagate(*args, **kwargs):
        propagations.append(1)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(invariants, "_checked_pulses", counting_pulses)
    monkeypatch.setattr(sweeps, "propagate", counting_propagate)
    assert run_cli(["simulate", "--scheme", "osd", "--out", str(tmp_path)]) == 0
    assert "discriminated=True" in capsys.readouterr().out
    assert samples == [800]
    assert propagations == [1]


@pytest.mark.parametrize("args", [["--scheme", "sps"], ["--scheme", "ansatz", "--n", "1.1",
                                                         "--T", "0.7"], ["--scheme", "oss"]])
def test_right_trace_file_mirrors_the_left_one(tmp_path, capsys, args):
    # the right-handed rows are the left ones with fields 2 and 4 swapped, byte
    # for byte, and the metadata blocks differ only in handedness
    assert run_cli(["simulate", *args, "--out", str(tmp_path)]) == 0
    left, right = (next(tmp_path.glob(f"populations_*_{hand}.csv")).read_bytes().splitlines()
                   for hand in ("left", "right"))
    assert len(left) == len(right)
    meta = [(l, r) for l, r in zip(left, right) if l.startswith(b"#") and l != r]
    assert meta == [(b"# handedness = left", b"# handedness = right")]
    header, *rows = [(l.split(b","), r.split(b",")) for l, r in zip(left, right)
                     if not l.startswith(b"#")]
    assert header[0] == header[1] and rows
    assert [r for l, r in rows if r != [l[0], l[3], l[2], l[1]]] == []


@pytest.mark.parametrize("mode", ["exact", "perturbative", "both"])
def test_scan_rejects_a_clamp_violation_in_every_mode(tmp_path, capsys, mode):
    # a perturbative scan checks the pulses that the exact modes propagate
    out = tmp_path / "out"
    assert run_cli(["scan", "--mode", mode, "--schemes", "ansatz:30", "--points", "3",
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: |Omega_q| = 186.4 exceeds clamp 100 at t = 0.0105283, "
        "outside the 1% endpoint windows\n")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["exact", "perturbative", "both"])
def test_scan_samples_the_pulses_once_per_scheme_in_every_mode(tmp_path, monkeypatch, mode):
    samples = []

    def counting_pulses(schedule, times, *args, **kwargs):
        samples.append(len(times))
        return _checked_pulses(schedule, times, *args, **kwargs)

    monkeypatch.setattr(invariants, "_checked_pulses", counting_pulses)
    assert run_cli(["scan", "--mode", mode, "--schemes", "osd", "--points", "3",
                    "--out", str(tmp_path)]) == 0
    assert samples == [800]


def test_simulate_zero_duration_rejected(tmp_path, capsys):
    assert run_cli(["simulate", "--T", "0", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_zero_workers_rejected(tmp_path, capsys):
    assert run_cli(["scan", "--workers", "0", "--out", str(tmp_path)]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err


def test_parallel_serial_equivalence(tmp_path):
    # --workers is accepted and ignored: the files are identical, byte for byte
    commands = {
        "detuning_oss_exact.csv": ["scan", "--error", "detuning", "--schemes", "oss",
                                   "--mode", "exact", "--points", "9", "--min", "-0.6",
                                   "--max", "0.6", "--steps", "500"],
        "heatmap_ansatz1.1_exact.csv": ["heatmap", "--alpha-points", "3",
                                        "--delta-points", "3", "--steps", "500"],
    }

    def run(name, args, workers):
        out = tmp_path / f"{name}-w{workers}"
        assert run_cli(args + ["--workers", str(workers), "--out", str(out)]) == 0
        return (out / name).read_text().replace(str(out), "OUT")

    for name, args in commands.items():
        assert run(name, args, 1) == run(name, args, 2)


def test_out_below_a_regular_file_is_rejected(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli(["design", "--out", str(blocker / "sub")]) == 2
    assert "error:" in capsys.readouterr().err


def test_scan_writes_one_file_per_scheme(tmp_path, capsys):
    code = run_cli(["scan", "--error", "systematic", "--schemes", "sps,oss",
                    "--mode", "exact", "--points", "5", "--min", "-0.1",
                    "--max", "0.1", "--steps", "500", "--out", str(tmp_path)])
    assert code == 0
    for name in ("systematic_sps_exact.csv", "systematic_oss_exact.csv"):
        rows = read_data_rows(tmp_path / name)
        assert rows.shape[0] == 5
        assert np.all(rows[:, 1:] <= 1.0 + 1e-12)
    assert "command=scan" in capsys.readouterr().out


def test_scan_detuning_default_range(tmp_path):
    code = run_cli(["scan", "--error", "detuning", "--schemes", "ansatz:1.12",
                    "--mode", "perturbative", "--points", "7",
                    "--out", str(tmp_path)])
    assert code == 0
    rows = read_data_rows(tmp_path / "detuning_ansatz1.12_perturbative.csv")
    assert rows[0, 0] == -1.0 and rows[-1, 0] == 1.0


@pytest.mark.parametrize("schemes", ["sps,SPS", "oss,sps,oss", "ansatz:1.1,ansatz:1.10"])
def test_scan_rejects_a_repeated_scheme(tmp_path, capsys, monkeypatch, schemes):
    # each scheme writes one file, so a repeat is rejected before anything runs
    def not_called(*args, **kwargs):
        raise AssertionError("fidelity_curve called")

    monkeypatch.setattr("chiralpulse.cli.fidelity_curve", not_called)
    assert run_cli(["scan", "--schemes", schemes, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: schemes {schemes} lists a scheme twice; "
                            "each scheme writes one file\n")
    assert list(tmp_path.iterdir()) == []


# the sps grid steps once over the clamped segment [0, t_c], where
# Omega_q^2 = 1e400 overflows the step propagators
HUGE_SPS_CLAMP = [
    ["scan", "--error", "detuning", "--schemes", "sps", "--mode", "exact", "--points", "3",
     "--clamp", "1e200"],
    ["simulate", "--scheme", "sps", "--clamp", "1e200"],
]


@pytest.mark.parametrize("args", [
    ["scan", "--schemes", "sps,SPS"],
    ["scan", "--schemes", "sps,foo"],
    ["heatmap", "--scheme", "sps", "--clamp", "0.5", "--alpha-points", "2",
     "--delta-points", "2"],                             # ClampViolation
    ["design", "--scheme", "sps", "--clamp", "0.5"],
    ["simulate", "--scheme", "sps", "--clamp", "0.5"],
    ["scan", "--points", "1"],
    ["scan", "--min", "0.5", "--points", "3"],           # above the default maximum 0.3
    ["scan", "--error", "detuning", "--min=-inf"],
    ["heatmap", "--alpha-min", "0.3", "--alpha-points", "2", "--delta-points", "2"],
    ["design", "--scheme", "ansatz", "--n", "7.44"],     # |Omega_q| grows with n
    *HUGE_SPS_CLAMP,
    ["scan", "--schemes", "ansatz:abc"],
    ["scan", "--schemes", "ansatz:"],
    ["design", "--scheme", "oss", "--n", "3"],          # n belongs to the ansatz
    ["heatmap", "--scheme", "sps", "--n", "1.1", "--alpha-points", "2", "--delta-points", "2"],
])
def test_rejected_run_creates_no_out_directory(tmp_path, capsys, args):
    # every command computes before it creates --out
    out = tmp_path / "new_dir"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["scan", "--scheme", "sps"],
    ["optimize", "--scheme", "sps"],
    ["scan", "--n", "99"],
    ["optimize", "--n", "3"],
])
def test_scan_and_optimize_take_no_scheme_or_n(tmp_path, capsys, args):
    # neither command reads them, and a flag is never an abbreviation: scan's
    # --scheme is not its --schemes
    out = tmp_path / "new_dir"
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--out", str(out)])
    assert exc.value.code == 2
    # the command's own parser reports the flag, under the command's usage
    err = capsys.readouterr().err
    assert err.startswith(f"usage: chiralpulse {args[0]} [-h]")
    assert err.endswith(f"chiralpulse {args[0]}: error: unrecognized arguments: "
                        f"{' '.join(args[1:])}\n")
    assert not out.exists()


def test_n_from_a_config_file_belongs_to_the_ansatz_too(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("scheme = osd\nn = 3\n")
    out = tmp_path / "new_dir"
    assert run_cli(["design", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --n is the ansatz weight; scheme 'osd' takes no --n\n")
    assert not out.exists()


def test_outputs_echo_only_the_settings_the_command_reads(tmp_path):
    def config_keys(path):
        return {line.split(" = ")[0].removeprefix("# config.")
                for line in path.read_text().splitlines() if line.startswith("# config.")}

    assert run_cli(["scan", "--points", "3", "--out", str(tmp_path / "scan")]) == 0
    files = list((tmp_path / "scan").glob("*.csv"))
    assert len(files) == 2
    for path in files:
        assert "schemes" in config_keys(path) and not {"scheme", "n"} & config_keys(path)
    # the heatmap's default n belongs to its default scheme, the ansatz
    heatmap = ["heatmap", "--alpha-points", "2", "--delta-points", "2"]
    assert run_cli(heatmap + ["--out", str(tmp_path / "a")]) == 0
    assert "# config.n = 1.1\n" in (tmp_path / "a" / "heatmap_ansatz1.1_exact.csv").read_text()
    assert run_cli(heatmap + ["--scheme", "oss", "--out", str(tmp_path / "o")]) == 0
    assert "n" not in config_keys(tmp_path / "o" / "heatmap_oss_exact.csv")


@pytest.mark.parametrize("args, message", [
    (["scan", "--points", "1"], "alpha axis needs at least 2 points, got 1"),
    (["scan", "--min", "0.5"],
     "alpha axis [0.5, 0.3] is empty: its minimum must be below its maximum"),
    (["heatmap", "--delta-min=-1e308", "--delta-max", "1e308"],
     "delta axis [-1e+308, 1e+308] is not finite: its bounds and their span must be finite"),
    (["scan", "--error", "detuning", "--max", "inf"],
     "delta axis [-1, inf] is not finite: its bounds and their span must be finite"),
], ids=["one_point", "min_above_default_max", "overflowing_span", "infinite_bound"])
def test_axis_rejection_names_the_bounds(tmp_path, capsys, args, message):
    assert run_cli(args + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_error_kind_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["scan", "--error", "resonance", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "invalid choice: 'resonance'" in capsys.readouterr().err
    # a config file value is parsed as its flag, with the flag's choices
    config = tmp_path / "bad.cfg"
    config.write_text("error = resonance\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["scan", "--config", str(config), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --error: invalid choice: 'resonance' "
        "(choose from 'systematic', 'detuning')\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("token", ["ansatz:abc", "ansatz:", "Ansatz: x"])
def test_a_bad_scheme_token_names_itself(tmp_path, capsys, token):
    assert run_cli(["scan", "--schemes", f"sps,{token}", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: scheme {token!r}: n must be a number\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, token, name", [
    (["--scheme", "sps"], "sps", "sps"),
    (["--scheme", "oss"], "oss", "oss"),
    (["--scheme", "osd"], "osd", "osd"),
    (["--scheme", "ansatz", "--n", "1.1"], "ansatz:1.1", "ansatz1.1"),
], ids=["sps", "oss", "osd", "ansatz1.1"])
def test_every_output_names_a_scheme_as_its_scan_token(tmp_path, capsys, flags, token, name):
    def summary(args):
        assert run_cli(args + ["--out", str(tmp_path / args[0])]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        return dict(pair.split("=", 1) for pair in line.split())

    def metadata(path, key):
        return [line for line in path.read_text().splitlines() if line.startswith(f"# {key} = ")]

    assert summary(["design", *flags])["scheme"] == name
    assert summary(["simulate", *flags])["scheme"] == name
    for hand in ("left", "right"):
        trace = tmp_path / "simulate" / f"populations_{name}_{hand}.csv"
        assert metadata(trace, "scheme")[0].startswith(f"# scheme = {name}:")
    heatmap = summary(["heatmap", *flags, "--alpha-points", "2", "--delta-points", "2"])
    path = tmp_path / "heatmap" / f"heatmap_{name}_exact.csv"
    assert (heatmap["scheme"], heatmap["file"]) == (name, str(path))
    assert metadata(path, "scheme")[0].startswith(f"# scheme = {name}:")
    scan = summary(["scan", "--schemes", token, "--points", "3"])
    path = tmp_path / "scan" / f"systematic_{name}_both.csv"
    assert scan["files"] == str(path)
    assert metadata(path, "schemes")[0].startswith(f"# schemes = {name}:")
    header = [line for line in path.read_text().splitlines() if not line.startswith("#")][0]
    assert header == f"alpha,F_{name}_exact_left,F_{name}_exact_right,F_{name}_pert"


def test_heatmap_small(tmp_path, capsys):
    code = run_cli(["heatmap", "--scheme", "ansatz", "--n", "1.10",
                    "--alpha-min", "-0.05", "--alpha-max", "0.05", "--alpha-points", "3",
                    "--delta-min", "-0.2", "--delta-max", "0.2", "--delta-points", "3",
                    "--steps", "500", "--out", str(tmp_path)])
    assert code == 0
    rows = read_data_rows(tmp_path / "heatmap_ansatz1.1_exact.csv")
    assert rows.shape == (9, 4)
    np.testing.assert_array_equal(rows[:, 3], rows[:, 2])
    assert "region_fraction" in capsys.readouterr().out


def test_heatmap_detuning_flags_are_in_units_of_one_over_T(tmp_path):
    # F depends only on alpha and delta*T, so a T = 2 heatmap on the same
    # flags covers delta = [-0.5, 0, 0.5] with the T = 1 fidelities
    args = ["heatmap", "--alpha-points", "2", "--delta-points", "3"]
    assert run_cli(args + ["--out", str(tmp_path / "t1")]) == 0
    assert run_cli(args + ["--T", "2", "--out", str(tmp_path / "t2")]) == 0
    t1 = read_data_rows(tmp_path / "t1" / "heatmap_ansatz1.1_exact.csv")
    t2 = read_data_rows(tmp_path / "t2" / "heatmap_ansatz1.1_exact.csv")
    np.testing.assert_array_equal(t2[:3, 1], [-0.5, 0.0, 0.5])
    np.testing.assert_allclose(t2[:, 2:], t1[:, 2:], rtol=0, atol=1e-12)


def test_scan_detuning_bounds_are_in_units_of_one_over_T(tmp_path):
    # explicit bounds follow 1/T as the default axis and the heatmap's do
    args = ["scan", "--error", "detuning", "--schemes", "oss", "--mode", "exact",
            "--points", "3", "--min", "-1", "--max", "1"]
    assert run_cli(args + ["--out", str(tmp_path / "t1")]) == 0
    assert run_cli(args + ["--T", "2", "--out", str(tmp_path / "t2")]) == 0
    t1 = read_data_rows(tmp_path / "t1" / "detuning_oss_exact.csv")
    t2 = read_data_rows(tmp_path / "t2" / "detuning_oss_exact.csv")
    np.testing.assert_array_equal(t2[:, 0], [-0.5, 0.0, 0.5])
    np.testing.assert_allclose(t2[:, 1:], t1[:, 1:], rtol=0, atol=1e-12)


def test_optimize_systematic_prints_optimum(capsys):
    code = run_cli(["optimize", "--kind", "systematic", "--steps", "1000"])
    assert code == 0
    out = capsys.readouterr().out
    summary = [ln for ln in out.splitlines() if ln.startswith("command=optimize")][0]
    fields = dict(kv.split("=", 1) for kv in summary.split())
    assert abs(float(fields["n_star"]) - 1.07) < 0.02
    assert abs(float(fields["q_min"]) - 0.52) < 0.02
    # exact-propagation cross-check at the optimum rides along in the summary
    assert 0.99 < float(fields["exact_fidelity_checkpoint"]) < 1.0


def test_optimize_detuning_q_min_scales_with_duration_squared(capsys):
    # q_delta(T) = T^2 q_delta(1): at T = 1e-8 the summary prints 1e-16 times
    # the T = 1 q_min, to its 8 digits
    q_min = {}
    for T in ("1", "1e-8"):
        assert run_cli(["optimize", "--kind", "detuning", "--T", T]) == 0
        summary = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("command=optimize")][0]
        q_min[T] = dict(kv.split("=", 1) for kv in summary.split())["q_min"]
    assert q_min["1e-8"] == f"{float(q_min['1']) * 1e-16:.8g}"


def test_optimize_tolerance_below_float_spacing_terminates(capsys):
    assert run_cli(["optimize", "--kind", "detuning", "--tol", "1e-17",
                    "--steps", "500"]) == 0
    assert "n_star=1.13" in capsys.readouterr().out


# finite bounds whose span hi - lo overflows: np.linspace's step is inf and
# its first value nan
OVERFLOWING_SPANS = [
    ["scan", "--error", "detuning", "--mode", "exact", "--min=-1e308", "--max", "1e308",
     "--points", "3"],
    ["heatmap", "--delta-min=-1e308", "--delta-max", "1e308", "--alpha-points", "2",
     "--delta-points", "3"],
    ["optimize", "--n-min=-1e308", "--n-max", "1e308"],
]

# a huge ansatz weight overflows X^2 in the schedule sample (and 3n at 1e308);
# the singular-theta or clamp check rejects the result
HUGE_ANSATZ_N = [
    ["design", "--scheme", "ansatz", "--n", "1e200"],
    ["simulate", "--scheme", "ansatz", "--n", "1e200"],
    ["scan", "--mode", "exact", "--schemes", "ansatz:1e200", "--points", "3"],
    ["design", "--scheme", "ansatz", "--n", "1e308"],
]


@pytest.mark.parametrize("args", [
    ["simulate", "--T", "1e-300"],
    ["scan", "--error", "detuning", "--schemes", "sps", "--mode", "perturbative",
     "--T", "1e300", "--points", "3"],                   # q_delta overflows
    ["optimize", "--T", "1e-300"],
    ["scan", "--mode", "exact", "--max", "inf"],
    ["simulate", "--T", "1e300"],                        # step propagators overflow
    ["scan", "--mode", "perturbative", "--min", "0", "--max", "1e200",
     "--points", "3"],                                   # alpha^2 overflows
    ["heatmap", "--T", "1e300", "--alpha-points", "2",
     "--delta-points", "2"],                             # batched exponentials overflow
    ["scan", "--mode", "exact", "--error", "detuning", "--schemes", "oss",
     "--min", "0", "--max", "1e200", "--points", "3"],   # delta^2 overflows
    ["scan", "--mode", "perturbative", "--schemes", "sps,oss,osd,ansatz"],  # no --n
    *OVERFLOWING_SPANS,
    *HUGE_ANSATZ_N,
])
def test_non_finite_sweep_data_rejected(tmp_path, capsys, args):
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # rejected before any file is written
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (["heatmap", "--T", "1e300", "--alpha-points", "2", "--delta-points", "2"],
     "alpha = -0.3, delta = -1e-300"),
    (["scan", "--mode", "exact", "--error", "detuning", "--schemes", "oss",
      "--min=-1e200", "--max", "0", "--points", "3"], "alpha = 0, delta = -1e+200"),
])
def test_overflow_error_names_the_first_point_with_its_sign(tmp_path, capsys, args, message):
    # the sweeps propagate each (alpha, |delta|) once; the error still names
    # the first swept point, with its signed delta
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: exact fidelity is nan at {message}: the step propagators overflowed "
        "(Hamiltonian entries too large to exponentiate)\n")


def test_huge_sps_clamp_exits_2_with_the_overflow_line(tmp_path, capsys):
    assert run_cli(HUGE_SPS_CLAMP[0] + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: exact fidelity is nan at alpha = 0, delta = -1: the step propagators "
        "overflowed (Hamiltonian entries too large to exponentiate)\n")
    assert not (tmp_path / "out").exists()


def test_optimize_with_overflowing_sensitivities_exits_2(capsys):
    # q_delta grows like T^2 and overflows at T = 1e300; the error names the
    # first overflowing q, not the n-range boundary its argmin would give
    assert run_cli(["optimize", "--kind", "detuning", "--T", "1e300"]) == 2
    err = capsys.readouterr().err
    assert err == "error: q_delta of ansatz0.5 is inf at T = 1e+300: the sensitivity overflows\n"


@pytest.mark.parametrize("args", [
    ["optimize", "--T", "1e-300"],                       # step propagators overflow
    ["optimize", "--kind", "detuning", "--T", "1e300"],  # q_delta overflows
    *OVERFLOWING_SPANS,
    *HUGE_ANSATZ_N,
    *HUGE_SPS_CLAMP,
])
def test_overflow_errors_print_only_the_error_line(tmp_path, args):
    # numpy's overflow warnings at the spots whose non-finite result is
    # rejected are silenced: stderr holds the error line and nothing else
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from chiralpulse.cli import main; "
            "sys.exit(main(sys.argv[2:]))")
    package_root = str(Path(chiralpulse.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code, package_root, *args],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_config_file_and_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("scheme = sps\nsteps = 600\nT = 1.0\n# comment\n")
    out1 = tmp_path / "a"
    code = run_cli(["design", "--config", str(config), "--out", str(out1)])
    assert code == 0
    meta = (out1 / "pulses.csv").read_text()
    assert "# config.steps = 600" in meta
    # CLI flag overrides the file value
    out2 = tmp_path / "b"
    code = run_cli(["design", "--config", str(config), "--steps", "750",
                    "--out", str(out2)])
    assert code == 0
    assert "# config.steps = 750" in (out2 / "pulses.csv").read_text()


@pytest.mark.parametrize("before", [True, False], ids=["flag_first", "config_first"])
def test_a_flag_overrides_the_config_file_on_either_side(tmp_path, before):
    config = tmp_path / "run.cfg"
    config.write_text("steps = 600\n")
    flag, file = ["--steps", "750"], ["--config", str(config)]
    out = tmp_path / "out"
    assert run_cli(["design", *(flag + file if before else file + flag), "--out", str(out)]) == 0
    assert "# config.steps = 750" in (out / "pulses.csv").read_text()


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("flux_capacitor = 1\n")
    assert run_cli(["design", "--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    # sweeps have no handedness option: both columns come from one propagation
    config.write_text("handedness = left\n")
    assert run_cli(["heatmap", "--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_read_config_file_parsing(tmp_path):
    # values stay text; resolve_config parses each as its flag
    config = tmp_path / "c.cfg"
    config.write_text("a = 1\nb-c = 2.5 # note\nd = text\ne = none\n")
    values = read_config_file(config)
    assert values == {"a": "1", "b_c": "2.5", "d": "text", "e": None}


@pytest.mark.parametrize("line", ["steps = 2.5", "points = abc", "T = abc"])
def test_config_file_value_of_wrong_type_rejected(tmp_path, capsys, line):
    # a file value is parsed as its flag, so argparse rejects it as it rejects the flag
    key, value = line.split(" = ")
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["scan", "--config", str(config), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    flag_type = "float" if key == "T" else "int"
    assert capsys.readouterr().err.endswith(
        f"error: argument --{key}: invalid {flag_type} value: '{value}'\n")
    assert not (tmp_path / "out").exists()


def test_config_values_that_look_like_flags_stay_values(tmp_path, capsys, monkeypatch):
    # each file value is passed as --key=value, so a leading '-' is not a flag
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("error = detuning\nmin = -0.5\nmax = 0.5\npoints = 3\n"
                      "schemes = osd\nmode = exact\nout = -dir\nsteps = none\n")
    assert run_cli(["scan", "--config", str(config)]) == 0
    assert "files=-dir/detuning_osd_exact.csv" in capsys.readouterr().out
    assert read_data_rows(tmp_path / "-dir" / "detuning_osd_exact.csv")[:, 0].tolist() == [
        -0.5, 0.0, 0.5]
    # a flag still overrides the file, and a file value gets its flag's choices
    assert run_cli(["scan", "--config", str(config), "--mode", "perturbative"]) == 0
    assert (tmp_path / "-dir" / "detuning_osd_perturbative.csv").exists()
    config.write_text("scheme = SPS\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["design", "--config", str(config), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --scheme: invalid choice: 'SPS'" in capsys.readouterr().err


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["scan", "--error", "systematic", "--schemes", "sps", "--mode", "exact",
            "--points", "3", "--min", "-0.1", "--max", "0.1", "--steps", "400"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    a = (out1 / "systematic_sps_exact.csv").read_text().replace(str(out1), "OUT")
    b = (out2 / "systematic_sps_exact.csv").read_text().replace(str(out2), "OUT")
    assert a == b


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    assert build_parser() is build_parser()
    scan = ["scan", "--mode", "perturbative", "--schemes", "sps"]
    assert run_cli(scan + ["--points", "5", "--out", str(tmp_path / "a")]) == 0
    assert run_cli(scan + ["--out", str(tmp_path / "b")]) == 0
    assert len(read_data_rows(tmp_path / "a" / "systematic_sps_perturbative.csv")) == 5
    assert len(read_data_rows(tmp_path / "b" / "systematic_sps_perturbative.csv")) == 101
    # a rejected argv leaves the parser as it was
    with pytest.raises(SystemExit):
        run_cli(scan + ["--points", "abc", "--out", str(tmp_path / "c")])
    assert run_cli(scan + ["--out", str(tmp_path / "d")]) == 0
    assert len(read_data_rows(tmp_path / "d" / "systematic_sps_perturbative.csv")) == 101
    assert not (tmp_path / "c").exists()


def test_help_lists_every_flag():
    parser = build_parser()
    for command, flags in {
        "design": ["--scheme", "--n", "--T", "--steps", "--clamp", "--workers",
                   "--out", "--config"],
        "scan": ["--error", "--schemes", "--mode", "--points", "--min", "--max"],
        "heatmap": ["--alpha-min", "--delta-points"],
        "optimize": ["--kind", "--n-min", "--n-max", "--tol"],
    }.items():
        sub = [a for a in parser._subparsers._group_actions[0].choices.items()
               if a[0] == command][0][1]
        text = sub.format_help()
        for flag in flags:
            assert flag in text, f"{flag} missing from {command} --help"
        if command in ("scan", "optimize"):
            # --schemes and --n-min are other flags
            assert not re.search(r"--(scheme|n)(?![\w-])", text), f"{command} --help"
