import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chiralpulse
from chiralpulse.cli import build_parser, main, read_config_file


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


def test_optimize_tolerance_below_float_spacing_terminates(capsys):
    assert run_cli(["optimize", "--kind", "detuning", "--tol", "1e-17",
                    "--steps", "500"]) == 0
    assert "n_star=1.13" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["simulate", "--T", "1e-300"],
    ["scan", "--error", "detuning", "--schemes", "sps", "--mode", "perturbative",
     "--T", "1e300", "--points", "3"],                   # q_delta overflows
    ["optimize", "--T", "1e-300"],
    ["scan", "--mode", "exact", "--max", "inf"],
    ["simulate", "--T", "1e300"],                        # step propagators overflow
])
def test_non_finite_sweep_data_rejected(tmp_path, capsys, args):
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # rejected before any file is written
    assert list(tmp_path.iterdir()) == []


def test_optimize_with_overflowing_sensitivities_exits_2(capsys):
    # q_delta grows like T^2 and overflows at T = 1e300; the error names the
    # first overflowing q, not the n-range boundary its argmin would give
    assert run_cli(["optimize", "--kind", "detuning", "--T", "1e300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: q_detuning is inf at n = 0.5;")


@pytest.mark.parametrize("args", [
    ["optimize", "--T", "1e-300"],                       # step propagators overflow
    ["optimize", "--kind", "detuning", "--T", "1e300"],  # q_delta overflows
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
    # values stay text; resolve_config converts each with its flag's type
    config = tmp_path / "c.cfg"
    config.write_text("a = 1\nb-c = 2.5 # note\nd = text\ne = none\n")
    values = read_config_file(config)
    assert values == {"a": "1", "b_c": "2.5", "d": "text", "e": None}


@pytest.mark.parametrize("line", ["steps = 2.5", "points = abc", "T = abc"])
def test_config_file_value_of_wrong_type_rejected(tmp_path, capsys, line):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    assert run_cli(["scan", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["scan", "--error", "systematic", "--schemes", "sps", "--mode", "exact",
            "--points", "3", "--min", "-0.1", "--max", "0.1", "--steps", "400"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    a = (out1 / "systematic_sps_exact.csv").read_text().replace(str(out1), "OUT")
    b = (out2 / "systematic_sps_exact.csv").read_text().replace(str(out2), "OUT")
    assert a == b


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
