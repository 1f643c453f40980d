import numpy as np
import pytest

from chiralpulse import (
    Handedness,
    QuantumState,
    ansatz_schedule,
    exact_fidelities,
    fidelity_curve,
    fidelity_heatmap,
    make_schedule,
    population_trace,
    propagate,
    q_alpha,
    q_delta,
    schedule_hamiltonian,
    sps_schedule,
)
from chiralpulse import dynamics, robustness
from chiralpulse.cli import DEFAULT_CLAMP, DEFAULT_STEPS
from chiralpulse.dynamics import _CHUNK_BYTES, _cf4_exponents
from chiralpulse.sweeps import TRACE_POINTS, SweepResult, _high_fidelity_region
from oracles import right_exact_fidelities

L, R = Handedness.LEFT, Handedness.RIGHT
CLAMP = DEFAULT_CLAMP / 1.0     # the CLI's cap of a T = 1 schedule, in absolute units


def test_population_trace_sps_left():
    trace = population_trace(sps_schedule(1.0), DEFAULT_STEPS, CLAMP)[L]
    assert trace.columns == ("t_over_T", "p1", "p2", "p3")
    assert len(trace.data) >= 200
    assert trace.data[0, 2] == pytest.approx(1.0, abs=1e-12)       # starts in |2>
    assert trace.data[-1, 3] > 1.0 - 1e-4                          # ends in |3>
    assert np.max(trace.data[:, 1]) <= 1e-3                        # |1> stays dark
    sums = trace.data[:, 1:].sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-10


def test_population_trace_sps_right():
    trace = population_trace(sps_schedule(1.0), DEFAULT_STEPS, CLAMP)[R]
    assert trace.data[0, 2] == pytest.approx(1.0, abs=1e-12)
    assert trace.data[-1, 1] > 1.0 - 1e-4                          # ends in |1>


def test_population_trace_row_sums_for_ansatz():
    trace = population_trace(ansatz_schedule(1.12, 1.0), 2000, CLAMP)[R]
    sums = trace.data[:, 1:].sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-10


@pytest.mark.parametrize("kind, n", [("sps", None), ("oss", None), ("osd", None),
                                     ("ansatz", 1.1)])
def test_right_trace_is_the_mirror_of_a_right_handed_propagation(kind, n):
    # P H_L(t) P = H_R(t) and P|2> = |2>, so the right-handed trace is the left
    # one with p1 and p3 swapped; an independent propagation agrees to rounding
    for T in (0.68, 1.0, 1.525):
        schedule = make_schedule(kind, T, n)
        clamp = DEFAULT_CLAMP / T
        for steps in (37, 400, 2000):
            traces = population_trace(schedule, steps, clamp)
            left, right = traces[L], traces[R]
            assert np.array_equal(right.data, left.data[:, [0, 3, 2, 1]])
            assert right.metadata == {**left.metadata, "handedness": "right"}
            assert list(right.metadata) == list(left.metadata)
            grid = schedule.grid(steps, clamp)
            pops = propagate(schedule_hamiltonian(schedule, R, clamp),
                             QuantumState.basis(2), grid).populations
            keep = np.unique(np.round(np.linspace(0, steps, TRACE_POINTS)).astype(int))
            assert np.array_equal(right.column("t_over_T"), grid[keep] / T)
            np.testing.assert_allclose(right.data[:, 1:], pops[keep], rtol=0, atol=1e-13)


def test_fidelity_curve_zero_error_is_unity():
    axis = ("systematic", np.linspace(-0.1, 0.1, 5))
    for schedule in (sps_schedule(1.0), make_schedule("oss", 1.0)):
        result = fidelity_curve(schedule, *axis, "exact", DEFAULT_STEPS, CLAMP)
        at_zero = result.data[2]
        assert result.data[2, 0] == 0.0
        assert np.all(at_zero[1:] > 1.0 - 1e-4)


def test_fidelity_curve_scheme_ordering_systematic():
    # compare schemes with the truncation bias suppressed (high clamp), so the
    # margin reflects the schedules rather than the pulse cap
    axis = ("systematic", np.linspace(-0.2, 0.2, 21))
    sps = fidelity_curve(sps_schedule(1.0), *axis, "exact", DEFAULT_STEPS, 5000.0)
    oss = fidelity_curve(make_schedule("oss", 1.0), *axis, "exact", DEFAULT_STEPS, 5000.0)
    margin = oss.column("F_oss_exact_left") - sps.column("F_sps_exact_left")
    assert np.min(margin) >= -1e-6


def test_fidelity_curve_scheme_ordering_detuning():
    axis = ("detuning", np.linspace(-1.0, 1.0, 21))
    sps = fidelity_curve(sps_schedule(1.0), *axis, "exact", DEFAULT_STEPS, 5000.0)
    osd = fidelity_curve(make_schedule("osd", 1.0), *axis, "exact", DEFAULT_STEPS, 5000.0)
    margin = osd.column("F_osd_exact_left") - sps.column("F_sps_exact_left")
    assert np.min(margin) >= -1e-6


def test_fidelity_curve_both_mode_agreement():
    result = fidelity_curve(make_schedule("oss", 1.0),
                            "systematic", np.linspace(-0.3, 0.3, 13), "both",
                            DEFAULT_STEPS, CLAMP)
    exact = result.column("F_oss_exact_left")
    pert = result.column("F_oss_pert")
    inside = np.abs(result.column("alpha")) <= 0.1
    assert np.max(np.abs(exact[inside] - pert[inside])) <= 0.01
    assert "agreement_worst_inside" in result.metadata


@pytest.mark.parametrize("label, flagged, worst", [("sps", 78, "2.606e-03"),
                                                   ("oss", 60, "5.396e-04")])
def test_agreement_stats_of_the_default_scan(label, flagged, worst):
    # the default `scan`: systematic axis [-0.3, 0.3] x 101, both modes, clamp
    # 100/T at T = 1; a flagged point counts once per exact column, so the
    # counts are even
    result = fidelity_curve(make_schedule(label, 1.0),
                            "systematic", np.linspace(-0.3, 0.3, 101), "both",
                            DEFAULT_STEPS, 100.0)
    assert result.metadata["agreement_window"] == "|alpha|<=0.1"
    assert result.metadata["agreement_worst_inside"] == worst
    assert result.metadata["agreement_flagged_outside"] == flagged


def test_fidelity_curve_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'magic'"):
        fidelity_curve(sps_schedule(1.0), "systematic", np.linspace(-0.1, 0.1, 3),
                       "magic", DEFAULT_STEPS, CLAMP)


def test_fidelity_curve_rejects_an_unknown_error_kind():
    with pytest.raises(ValueError, match="unknown error kind 'resonance'"):
        fidelity_curve(sps_schedule(1.0), "resonance", np.linspace(-0.1, 0.1, 3),
                       "exact", DEFAULT_STEPS, CLAMP)


def test_fidelity_curve_perturbative_handedness_free():
    result = fidelity_curve(make_schedule("osd", 1.0),
                            "detuning", np.linspace(-0.5, 0.5, 5), "perturbative",
                            DEFAULT_STEPS, CLAMP)
    assert result.columns == ("delta", "F_osd_pert")
    assert result.metadata["error_axis"] == "detuning[-0.5,0.5]x5"
    assert np.all(result.column("F_osd_pert") <= 1.0)
    assert result.metadata["clamp"] == CLAMP


def test_heatmap_small_grid():
    schedule = ansatz_schedule(1.10, 1.0)
    result = fidelity_heatmap(schedule, np.linspace(-0.1, 0.1, 7), np.linspace(-0.5, 0.5, 7),
                              DEFAULT_STEPS, CLAMP)
    assert result.metadata["scheme"].startswith("ansatz1.1:")
    assert result.metadata["clamp"] == CLAMP
    assert (result.metadata["alpha_axis"], result.metadata["delta_axis"]) == (
        "[-0.1,0.1]x7", "[-0.5,0.5]x7")
    rows = result.data
    center = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)]
    assert center[0, 2] > 1.0 - 1e-4
    # the right-handed column is the mirror of the left-handed propagation;
    # an independent right-handed propagation agrees to rounding
    right = result.column("F_exact_right")
    for k in (0, 10, 24, 40, 48):
        oracle = right_exact_fidelities(schedule, rows[k, 0], rows[k, 1], DEFAULT_STEPS,
                                        CLAMP)[0]
        assert abs(right[k] - oracle) < 1e-13
    assert float(result.metadata["region_F>=0.99_fraction_left"]) > 0.0
    assert result.metadata["region_F>=0.99_contiguous_left"]


def test_heatmap_cells_equal_single_point_fidelities():
    # the heatmap batches its cells; each value is the same, bit for bit, as
    # that cell computed alone
    schedule = ansatz_schedule(1.10, 1.0)
    result = fidelity_heatmap(schedule, np.linspace(-0.3, 0.3, 5), np.linspace(-1.0, 1.0, 5),
                              DEFAULT_STEPS, CLAMP)
    alone = [exact_fidelities(schedule, a, d, DEFAULT_STEPS, CLAMP)[0]
             for a, d in result.data[:, :2]]
    assert result.column("F_exact_left").tolist() == alone


def test_scan_points_equal_single_point_fidelities():
    schemes = (sps_schedule(1.0), ansatz_schedule(1.10, 1.0))
    for kind in ("systematic", "detuning"):
        for schedule in schemes:
            result = fidelity_curve(schedule, kind, np.linspace(-0.3, 0.3, 7), "both",
                                    DEFAULT_STEPS, CLAMP)
            points = [(amp, 0.0) if kind == "systematic" else (0.0, amp)
                      for amp in result.data[:, 0]]
            alone = [exact_fidelities(schedule, a, d, DEFAULT_STEPS, CLAMP)[0]
                     for a, d in points]
            assert result.column(f"F_{schedule.name}_exact_left").tolist() == alone


def test_fidelities_across_a_chunk_boundary_equal_single_points():
    # one point more than a chunk: the last point runs alone, in a prefix of
    # the chunk buffers
    schedule = ansatz_schedule(1.10, 1.0)
    chunk = _CHUNK_BYTES // (9 * 16 * 2 * DEFAULT_STEPS)
    alphas = np.linspace(-0.3, 0.3, chunk + 1)
    deltas = np.linspace(1.0, -1.0, chunk + 1)
    batch = exact_fidelities(schedule, alphas, deltas, DEFAULT_STEPS, CLAMP)
    alone = [exact_fidelities(schedule, a, d, DEFAULT_STEPS, CLAMP)[0]
             for a, d in zip(alphas, deltas)]
    assert batch.tolist() == alone


def _count_kernel_points(monkeypatch) -> list:
    """Record the number of error points of every ``_cf4_products`` call of the sweeps."""
    calls = []

    def counting(w, q, taus, alphas, deltas):
        calls.append(len(alphas))
        return dynamics._cf4_products(w, q, taus, alphas, deltas)

    monkeypatch.setattr(robustness, "_cf4_products", counting)
    return calls


def _unfolded(schedule, alphas, deltas):
    """Left-handed fidelities with each point propagated at its signed delta."""
    w, q, taus = _cf4_exponents(schedule_hamiltonian(schedule, L, CLAMP),
                                schedule.grid(DEFAULT_STEPS, CLAMP))
    total = dynamics._cf4_products(w, q, taus, np.asarray(alphas, dtype=float),
                                   np.asarray(deltas, dtype=float))
    return (np.abs(total[2, 1]) ** 2).tolist()


def test_heatmap_folds_onto_distinct_alpha_abs_delta(monkeypatch):
    # linspace(-1, 1, 4) holds +-1 and two values near +-1/3 that are not
    # exact negatives: 4 alphas x 3 distinct |delta|
    schedule = ansatz_schedule(1.10, 1.0)
    calls = _count_kernel_points(monkeypatch)
    result = fidelity_heatmap(schedule, np.linspace(-0.3, 0.3, 4), np.linspace(-1.0, 1.0, 4),
                              DEFAULT_STEPS, CLAMP)
    assert calls == [12]
    rows = result.data[:, :2]
    left = result.column("F_exact_left").tolist()
    assert left == _unfolded(schedule, rows[:, 0], rows[:, 1])
    assert left == [exact_fidelities(schedule, a, d, DEFAULT_STEPS, CLAMP)[0] for a, d in rows]


def test_folded_101_point_delta_axis_equals_unfolded(monkeypatch):
    schedule = ansatz_schedule(1.10, 1.0)
    alphas = np.array([-0.3, 0.0, 0.2])
    deltas = np.linspace(-1.0, 1.0, 101)
    cell_alphas, cell_deltas = np.repeat(alphas, 101), np.tile(deltas, 3)
    calls = _count_kernel_points(monkeypatch)
    folded = exact_fidelities(schedule, cell_alphas, cell_deltas, DEFAULT_STEPS, CLAMP)
    assert calls == [3 * len(np.unique(np.abs(deltas)))]
    assert folded.tolist() == _unfolded(schedule, cell_alphas, cell_deltas)


def test_fold_merges_signed_zeros_and_repeated_points(monkeypatch):
    schedule = sps_schedule(1.0)
    alphas = [0.1, 0.1, -0.0, 0.0, 0.0, 0.2, 0.2]
    deltas = [0.3, -0.3, -0.0, 0.0, -0.0, 0.7, 0.7]
    calls = _count_kernel_points(monkeypatch)
    folded = exact_fidelities(schedule, alphas, deltas, DEFAULT_STEPS, CLAMP)
    assert calls == [3]
    assert folded.tolist() == _unfolded(schedule, alphas, deltas)


def test_scans_propagate_each_distinct_point_once(monkeypatch):
    schemes = tuple(make_schedule(name, 1.0) for name in ("sps", "oss", "osd"))
    calls = _count_kernel_points(monkeypatch)
    detuning = [fidelity_curve(schedule, "detuning", np.linspace(-1.0, 1.0, 5), "both",
                               DEFAULT_STEPS, CLAMP)
                for schedule in schemes]
    assert calls == [3, 3, 3]
    calls.clear()
    for schedule in schemes:
        fidelity_curve(schedule, "systematic", np.linspace(-0.3, 0.3, 5), "both",
                       DEFAULT_STEPS, CLAMP)
    assert calls == [5, 5, 5]
    for schedule, result in zip(schemes, detuning):
        amps = result.data[:, 0]
        assert result.column(f"F_{schedule.name}_exact_left").tolist() == _unfolded(
            schedule, np.zeros(5), amps)


def test_high_fidelity_region_helper():
    f = np.array([[0.5, 0.5, 0.5], [0.5, 1.0, 0.995], [0.5, 0.5, 0.5]])
    frac, contiguous = _high_fidelity_region(f, np.array([-1, 0, 1]),
                                             np.array([-1, 0, 1]))
    assert frac == pytest.approx(2 / 9)
    assert contiguous
    f[1, 2] = 0.5
    f[0, 0] = 1.0  # disconnected island
    frac, contiguous = _high_fidelity_region(f, np.array([-1, 0, 1]),
                                             np.array([-1, 0, 1]))
    assert not contiguous


def _sensitivity_curve(measure, lo, hi, points):
    """q(n) of the ansatz family on `points` equally spaced n in [lo, hi]."""
    ns = np.linspace(lo, hi, points)
    return ns, np.array([measure(ansatz_schedule(n, 1.0)) for n in ns])


def test_sensitivity_curve_minimum_locations():
    ns, qs = _sensitivity_curve(q_alpha, 0.5, 1.5, 201)
    k = int(np.argmin(qs))
    assert ns[k] == pytest.approx(1.07, abs=0.02)
    assert qs[k] == pytest.approx(0.52, abs=0.02)

    ns, qs = _sensitivity_curve(q_delta, 0.9, 1.4, 101)
    k = int(np.argmin(qs))
    assert ns[k] == pytest.approx(1.12, abs=0.02)


def test_sensitivity_curves_smooth_with_single_interior_minimum():
    for measure in (q_alpha, q_delta):
        _, qs = _sensitivity_curve(measure, 0.5, 1.5, 101)
        jumps = np.abs(np.diff(qs))
        assert np.max(jumps) < 10 * np.median(jumps)
        interior_minima = [k for k in range(1, len(qs) - 1)
                           if qs[k] <= qs[k - 1] and qs[k] <= qs[k + 1]]
        assert len(interior_minima) == 1
        assert np.all(qs >= 0)


def test_sweep_csv_determinism(tmp_path):
    args = (sps_schedule(1.0), "systematic", np.linspace(-0.1, 0.1, 5), "exact", 500,
            CLAMP)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    fidelity_curve(*args).to_csv(p1)
    fidelity_curve(*args).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()
    assert header[0].startswith("# code_version = ")


def _per_row_sweep_csv(result):
    """Reference writer: one "%.15g" per value, joined row by row."""
    lines = [f"# {key} = {value}" for key, value in result.metadata.items()]
    lines.append(",".join(result.columns))
    lines += [",".join("%.15g" % v for v in row) for row in result.data]
    return ("\n".join(lines) + "\n").encode()


def test_sweep_csv_matches_per_row_formatting(tmp_path):
    axis = ("detuning", np.linspace(-1.0, 1.0, 7))
    adversarial = np.array([[-0.0, 5e-324, 1e-300, 1e16],
                            [3.0, -7.0, 123456789012345.0, 0.1 + 0.2],
                            [np.pi, -2.0 / 3.0, 1.0 / 7.0, 9.999999999999999e22]])
    for k, result in enumerate([
            *population_trace(sps_schedule(1.0), DEFAULT_STEPS, CLAMP).values(),
            fidelity_curve(sps_schedule(1.0), *axis, "both", DEFAULT_STEPS, CLAMP),
            fidelity_curve(make_schedule("oss", 1.0), *axis, "both", DEFAULT_STEPS,
                           CLAMP),
            SweepResult(columns=("a", "b", "c", "d"), data=adversarial, metadata={"x": 1}),
            SweepResult(columns=("a", "b"), data=adversarial.T[:, :2])]):  # not C-contiguous
        path = tmp_path / f"{k}.csv"
        result.to_csv(path)
        assert path.read_bytes() == _per_row_sweep_csv(result)
