import numpy as np
import pytest

from chiralpulse import (
    ErrorAxis,
    ErrorModel,
    Handedness,
    SweepSpec,
    ansatz_schedule,
    exact_fidelity,
    fidelity_curve,
    fidelity_heatmap,
    high_fidelity_region,
    population_trace,
    q_alpha,
    q_delta,
    sps_schedule,
)

L, R = Handedness.LEFT, Handedness.RIGHT


def test_error_axis_validation():
    with pytest.raises(ValueError):
        ErrorAxis("systematic", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        ErrorAxis("systematic", 1.0, 0.0, 11)
    with pytest.raises(ValueError):
        ErrorAxis("resonance", 0.0, 1.0, 11)
    with pytest.raises(ValueError):
        ErrorAxis("detuning", -np.inf, 1.0, 11)
    axis = ErrorAxis("detuning", -1.0, 1.0, 5)
    assert axis.column == "delta"
    np.testing.assert_allclose(axis.values, [-1, -0.5, 0, 0.5, 1])


def test_population_trace_sps_left():
    trace = population_trace(sps_schedule(1.0), L)
    assert trace.columns == ("t_over_T", "p1", "p2", "p3")
    assert len(trace.data) >= 200
    assert trace.data[0, 2] == pytest.approx(1.0, abs=1e-12)       # starts in |2>
    assert trace.data[-1, 3] > 1.0 - 1e-4                          # ends in |3>
    assert np.max(trace.data[:, 1]) <= 1e-3                        # |1> stays dark
    sums = trace.data[:, 1:].sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-10


def test_population_trace_sps_right():
    trace = population_trace(sps_schedule(1.0), R)
    assert trace.data[0, 2] == pytest.approx(1.0, abs=1e-12)
    assert trace.data[-1, 1] > 1.0 - 1e-4                          # ends in |1>


def test_population_trace_row_sums_for_ansatz():
    trace = population_trace(ansatz_schedule(1.12, 1.0), R, steps=2000)
    sums = trace.data[:, 1:].sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-10


def test_fidelity_curve_zero_error_is_unity():
    spec = SweepSpec(
        schemes=(("sps", sps_schedule(1.0)), ("oss", ansatz_schedule(1.07, 1.0))),
        axis1=ErrorAxis("systematic", -0.1, 0.1, 5),
        mode="exact",
    )
    result = fidelity_curve(spec)
    at_zero = result.data[2]
    assert result.data[2, 0] == 0.0
    assert np.all(at_zero[1:] > 1.0 - 1e-4)


def test_fidelity_curve_scheme_ordering_systematic():
    # compare schemes with the truncation bias suppressed (high clamp), so the
    # margin reflects the schedules rather than the pulse cap
    spec = SweepSpec(
        schemes=(("sps", sps_schedule(1.0)), ("oss", ansatz_schedule(1.07, 1.0))),
        axis1=ErrorAxis("systematic", -0.2, 0.2, 21),
        mode="exact", clamp=5000.0,
    )
    result = fidelity_curve(spec)
    margin = result.column("F_oss_exact_left") - result.column("F_sps_exact_left")
    assert np.min(margin) >= -1e-6


def test_fidelity_curve_scheme_ordering_detuning():
    spec = SweepSpec(
        schemes=(("sps", sps_schedule(1.0)), ("osd", ansatz_schedule(1.12, 1.0))),
        axis1=ErrorAxis("detuning", -1.0, 1.0, 21),
        mode="exact", clamp=5000.0,
    )
    result = fidelity_curve(spec)
    margin = result.column("F_osd_exact_left") - result.column("F_sps_exact_left")
    assert np.min(margin) >= -1e-6


def test_fidelity_curve_both_mode_agreement():
    spec = SweepSpec(
        schemes=(("oss", ansatz_schedule(1.07, 1.0)),),
        axis1=ErrorAxis("systematic", -0.3, 0.3, 13),
        mode="both",
    )
    result = fidelity_curve(spec)
    exact = result.column("F_oss_exact_left")
    pert = result.column("F_oss_pert")
    inside = np.abs(result.column("alpha")) <= 0.1
    assert np.max(np.abs(exact[inside] - pert[inside])) <= 0.01
    assert "agreement_worst_inside" in result.metadata


def test_fidelity_curve_perturbative_handedness_free():
    spec = SweepSpec(
        schemes=(("osd", ansatz_schedule(1.12, 1.0)),),
        axis1=ErrorAxis("detuning", -0.5, 0.5, 5),
        mode="perturbative",
    )
    result = fidelity_curve(spec)
    assert result.columns == ("delta", "F_osd_pert")
    assert np.all(result.column("F_osd_pert") <= 1.0)


def test_heatmap_small_grid():
    spec = SweepSpec(
        schemes=(("ansatz1.1", ansatz_schedule(1.10, 1.0)),),
        axis1=ErrorAxis("systematic", -0.1, 0.1, 7),
        axis2=ErrorAxis("detuning", -0.5, 0.5, 7),
        mode="exact",
    )
    result = fidelity_heatmap(spec)
    rows = result.data
    center = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)]
    assert center[0, 2] > 1.0 - 1e-4
    # the right-handed column is the mirror of the left-handed propagation;
    # an independent right-handed propagation agrees to rounding
    right = result.column("F_exact_right")
    for k in (0, 10, 24, 40, 48):
        error = ErrorModel(alpha=rows[k, 0], delta=rows[k, 1])
        assert abs(right[k] - exact_fidelity(spec.schemes[0][1], error, R)) < 1e-13
    assert float(result.metadata["region_F>=0.99_fraction_left"]) > 0.0
    assert result.metadata["region_F>=0.99_contiguous_left"]


def test_heatmap_requires_two_axes():
    with pytest.raises(ValueError):
        fidelity_heatmap(SweepSpec(
            schemes=(("sps", sps_schedule(1.0)),),
            axis1=ErrorAxis("systematic", -0.1, 0.1, 3),
        ))


def test_high_fidelity_region_helper():
    f = np.array([[0.5, 0.5, 0.5], [0.5, 1.0, 0.995], [0.5, 0.5, 0.5]])
    frac, contiguous = high_fidelity_region(f, np.array([-1, 0, 1]),
                                            np.array([-1, 0, 1]))
    assert frac == pytest.approx(2 / 9)
    assert contiguous
    f[1, 2] = 0.5
    f[0, 0] = 1.0  # disconnected island
    frac, contiguous = high_fidelity_region(f, np.array([-1, 0, 1]),
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
    spec = SweepSpec(
        schemes=(("sps", sps_schedule(1.0)),),
        axis1=ErrorAxis("systematic", -0.1, 0.1, 5),
        mode="exact", steps=500,
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    fidelity_curve(spec).to_csv(p1)
    fidelity_curve(spec).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()
    assert header[0].startswith("# code_version = ")


def test_sweep_spec_validation():
    axis = ErrorAxis("systematic", -0.1, 0.1, 3)
    with pytest.raises(ValueError):
        SweepSpec(schemes=(), axis1=axis)
    with pytest.raises(ValueError):
        SweepSpec(schemes=(("sps", sps_schedule(1.0)),), axis1=axis, mode="magic")
