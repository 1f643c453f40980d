import dataclasses

import numpy as np
import pytest

from chiralpulse import (
    ClampViolation,
    Handedness,
    InvariantSchedule,
    PulseSchedule,
    QuantumState,
    SingularTheta,
    ansatz_schedule,
    exact_fidelities,
    make_grid,
    make_schedule,
    propagate,
    pulses_from_invariant,
    schedule_hamiltonian,
    sps_schedule,
    validate_schedule,
)
from chiralpulse.cli import DEFAULT_CLAMP, DEFAULT_STEPS
from chiralpulse.invariants import (
    CLAMP_WINDOW_FRACTION,
    LOOP_PHASE,
    PULSE_HEADER,
    VALIDATION_SAMPLES,
    CheckResult,
    ValidationReport,
    _invariant_residual,
    _raw_pulses,
)
from oracles import (SWAP_1_3, invariant_eigensystem, invariant_matrix, invariant_residual,
                     lr_phase)

L, R = Handedness.LEFT, Handedness.RIGHT


# ---------------------------------------------------------------------------
# invariant matrices and eigensystem
# ---------------------------------------------------------------------------

def test_invariant_matrix_left_boundary_values():
    m = invariant_matrix(L, np.pi / 2, np.pi / 2)
    np.testing.assert_allclose(m, [[0, 1, 0], [1, 0, 0], [0, 0, 0]], atol=1e-15)


def test_invariant_matrix_left_phi_zero():
    m = invariant_matrix(L, 0.0, 0.7)
    np.testing.assert_allclose(m, [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], atol=1e-15)


def test_invariant_matrix_right_example():
    m = invariant_matrix(R, np.pi / 2, 0.0)
    np.testing.assert_allclose(m, [[0, 1, 0], [1, 0, 0], [0, 0, 0]], atol=1e-15)


def test_invariant_matrix_hermitian_traceless():
    rng = np.random.default_rng(3)
    phi, theta = rng.uniform(0, np.pi, 200), rng.uniform(0, 2 * np.pi, 200)
    for hand in (L, R):
        m = invariant_matrix(hand, phi, theta)
        np.testing.assert_array_equal(m, np.conj(np.swapaxes(m, -1, -2)))
        assert np.max(np.abs(np.trace(m, axis1=-2, axis2=-1))) == 0.0


def test_eigenvector_boundary_targets():
    _, v0_left = invariant_eigensystem(L, np.pi / 2, np.pi / 2)[0]
    np.testing.assert_allclose(v0_left, [0, 0, 1], atol=1e-15)
    _, v0_right = invariant_eigensystem(R, np.pi / 2, np.pi / 2)[0]
    np.testing.assert_allclose(v0_right, [1, 0, 0], atol=1e-15)
    _, v0_start = invariant_eigensystem(L, 0.0, 1.234)[0]
    np.testing.assert_allclose(v0_start, [0, 1j, 0], atol=1e-15)


def test_eigen_identity_and_orthonormality_random():
    rng = np.random.default_rng(11)
    phi = rng.uniform(-np.pi, np.pi, 10_000)
    theta = rng.uniform(-np.pi, np.pi, 10_000)
    for hand in (L, R):
        m = invariant_matrix(hand, phi, theta)
        vectors = []
        for mu, vec in invariant_eigensystem(hand, phi, theta):
            residual = np.einsum("kij,kj->ki", m, vec) - mu * vec
            assert np.max(np.abs(residual)) < 1e-12
            vectors.append(vec)
        basis = np.stack(vectors, axis=-1)        # (N, 3, 3), columns = eigenvectors
        gram = np.einsum("kij,kil->kjl", basis.conj(), basis)
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_sps_schedule_values():
    s = sps_schedule(1.0)
    assert s.sample(0.0).phi == 0.0
    assert s.sample(1.0).phi == pytest.approx(np.pi / 2, abs=1e-15)
    assert s.sample(1.0).theta == pytest.approx(np.pi / 2, abs=1e-15)
    assert sps_schedule(2.0).sample(1.0).phi == pytest.approx(np.pi / 4, abs=1e-15)


def test_ansatz_boundary_conditions_across_n():
    for n in np.linspace(0.0, 2.0, 21):
        s = ansatz_schedule(n, 1.0)
        assert abs(s.sample(0.0).phi) < 1e-12
        assert abs(s.sample(1.0).phi - np.pi / 2) < 1e-12
        assert abs(s.sample(1.0).theta - np.pi / 2) < 1e-12


def test_ansatz_theta_starts_at_three_quarter_pi():
    for n in (0.3, 0.8, 1.07, 1.12):
        s = ansatz_schedule(n, 1.0)
        assert s.sample(1e-12).theta == pytest.approx(3 * np.pi / 4, abs=1e-9)


def test_ansatz_theta_continuous():
    for n in (0.0, 0.8, 1.07, 1.5, 3.0, 10.0):
        s = ansatz_schedule(n, 1.0)
        t = np.linspace(0, 1, 20001)
        sampled = s.sample(t)
        theta = sampled.theta
        assert np.max(np.abs(np.diff(theta))) < 0.01
        # the pulse denominator never vanishes: sin - cos = sqrt(2)/sqrt(X^2+1);
        # atol covers the rounding of theta (~4e-16 near 5*pi/4), which at
        # n = 10 is 1.2e-14 of the smallest value, 0.055
        phi = sampled.phi
        x = np.sin(phi) * (3 * n * np.cos(3 * phi) + 1)
        np.testing.assert_allclose(np.sin(theta) - np.cos(theta),
                                   np.sqrt(2) / np.sqrt(x * x + 1),
                                   rtol=1e-14, atol=1e-15)


def test_schedule_derivatives_match_finite_differences():
    for s in (sps_schedule(1.3), ansatz_schedule(1.07, 1.3)):
        t = np.linspace(0.05, 1.25, 500)
        h = 1e-7
        mid, below, above = s.sample(t), s.sample(t - h), s.sample(t + h)
        fd_phi = (above.phi - below.phi) / (2 * h)
        fd_theta = (above.theta - below.theta) / (2 * h)
        np.testing.assert_allclose(fd_phi, mid.phi_dot, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(fd_theta, mid.theta_dot, rtol=1e-6, atol=1e-6)


def test_make_schedule_aliases():
    assert make_schedule("sps", 1.0).kind == "sps"
    assert make_schedule("oss", 1.0).n == pytest.approx(1.07)
    assert make_schedule("osd", 1.0).n == pytest.approx(1.12)
    assert make_schedule("ansatz", 2.0, 0.9).duration == 2.0
    with pytest.raises(ValueError):
        make_schedule("ansatz", 1.0)
    with pytest.raises(ValueError):
        make_schedule("nope", 1.0)


@pytest.mark.parametrize("duration", [np.nan, np.inf, 0.0, -2.0])
def test_schedules_reject_a_non_finite_or_non_positive_duration(duration):
    for build in (sps_schedule, lambda T: ansatz_schedule(1.1, T),
                  lambda T: make_schedule("oss", T)):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            build(duration)


# ---------------------------------------------------------------------------
# pulse synthesis
# ---------------------------------------------------------------------------

def test_sps_pulses_match_closed_forms():
    s = sps_schedule(1.0)
    grid = make_grid(1.0, 1000)
    pulses = pulses_from_invariant(s, grid, DEFAULT_CLAMP)
    np.testing.assert_allclose(pulses.omega, np.pi / 2, atol=1e-14)
    mid = np.argmin(np.abs(grid - 0.5))
    assert pulses.omega_q[mid] == pytest.approx(np.pi / 2, abs=1e-12)
    assert abs(pulses.omega_q[-1]) < 1e-12


def test_sps_pulse_scaling_with_duration():
    pulses = pulses_from_invariant(sps_schedule(2.0), make_grid(2.0, 800), DEFAULT_CLAMP / 2.0)
    np.testing.assert_allclose(pulses.omega, np.pi / 4, atol=1e-14)
    mid = len(pulses.times) // 2
    assert pulses.omega_q[mid] == pytest.approx((np.pi / 4) / np.tan(np.pi / 4), abs=1e-12)


def test_sps_clamping_confined_to_endpoint_window():
    grid = make_grid(1.0, 4000)
    pulses = pulses_from_invariant(sps_schedule(1.0), grid, 100.0)
    clamped = np.abs(pulses.omega_q) >= 100.0 - 1e-9
    assert np.any(clamped)
    assert np.all(grid[clamped] <= 0.01 + 1e-12)
    assert np.all(np.abs(pulses.omega_q) <= 100.0)


def test_ansatz_omega_q_is_finite_and_unclamped():
    # the sin(theta)+cos(theta) zero at t=0 cancels the cot(phi) pole:
    # Omega_q(0) = 2*(3n+1)*phi_dot, far below the default clamp
    n = 1.07
    s = ansatz_schedule(n, 1.0)
    grid = make_grid(1.0, 4000)
    pulses = pulses_from_invariant(s, grid, 100.0)
    assert np.all(np.isfinite(pulses.omega_q))
    assert np.max(np.abs(pulses.omega_q)) < 100.0
    expected0 = 2.0 * (3 * n + 1) * np.pi / 2
    assert pulses.omega_q[0] == pytest.approx(expected0, rel=1e-12)


def test_ansatz_omega_positive_everywhere():
    for n in (0.0, 0.5, 1.07, 1.12, 2.0):
        pulses = pulses_from_invariant(ansatz_schedule(n, 1.0), make_grid(1.0, 2000),
                                       DEFAULT_CLAMP)
        assert np.all(pulses.omega > 0)


def test_clamp_violation_outside_window():
    # a clamp so low that even the mid-pulse loop coupling exceeds it
    with pytest.raises(ClampViolation):
        pulses_from_invariant(sps_schedule(1.0), make_grid(1.0, 1000), 1.0)


@pytest.mark.parametrize("kind, n", [("oss", None), ("osd", None), ("ansatz", 1.1),
                                     ("ansatz", 3.0)])
def test_ansatz_grid_is_make_grid(kind, n):
    for T in (0.68, 1.0, 1.525):
        schedule = make_schedule(kind, T, n)
        for steps in (1, 2, 37, DEFAULT_STEPS):
            for clamp in (DEFAULT_CLAMP / T, 1e200):
                grid = schedule.grid(steps, clamp)
                assert grid.tobytes() == make_grid(T, steps).tobytes()


def _switch_time(T, clamp):
    """t_c, where the sps cot pulse (pi/2T) cot(pi t/2T) falls to the clamp."""
    return 2.0 * T / np.pi * np.arctan(np.pi / (2.0 * T * clamp))


@pytest.mark.parametrize("clamp", [DEFAULT_CLAMP, 150.0, 1000.0, 1e9, 1e200])
def test_sps_grid_puts_the_clamp_switch_on_a_grid_point(clamp):
    for T in (0.68, 1.0, 1.525):
        for steps in (2, 3, 37, DEFAULT_STEPS):
            grid = sps_schedule(T).grid(steps, clamp / T)
            assert len(grid) == steps + 1
            assert np.all(np.diff(grid) > 0)
            assert grid[0] == 0.0 and grid[-1] == T
            assert grid[1] == pytest.approx(_switch_time(T, clamp / T), rel=1e-15)
            # geometric after t_c: every step is the same multiple of its start
            ratios = grid[2:] / grid[1:-1]
            np.testing.assert_allclose(ratios, (T / grid[1]) ** (1.0 / (steps - 1)), rtol=1e-12)
    # the cap holds up to t_c, and the cot pulse is below it after
    grid = sps_schedule(1.0).grid(DEFAULT_STEPS, clamp)
    pulses = pulses_from_invariant(sps_schedule(1.0), grid[1:3], clamp)
    assert pulses.omega_q[0] == pytest.approx(clamp, rel=1e-13)
    assert pulses.omega_q[1] < clamp


def test_sps_grid_in_units_of_t_depends_on_clamp_times_t_only():
    for steps in (2, 37, DEFAULT_STEPS):
        for clamp in (DEFAULT_CLAMP, 150.0, 1e9):
            one, two = (sps_schedule(T).grid(steps, clamp / T) / T for T in (1.0, 2.0))
            assert one.tobytes() == two.tobytes()


def test_sps_grid_rejects_what_it_cannot_place():
    schedule = sps_schedule(1.0)
    with pytest.raises(ValueError, match="an sps grid needs steps >= 2"):
        schedule.grid(1, DEFAULT_CLAMP)
    for clamp in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="clamp must be positive"):
            schedule.grid(DEFAULT_STEPS, clamp)
    with pytest.raises(ValueError, match="too large to place the sps clamp switch"):
        sps_schedule(1e10).grid(DEFAULT_STEPS, 1e300)


def test_sps_clamp_switch_past_the_window_is_rejected():
    # at clamp 99.95/T the cap holds up to t_c = 0.010004 T, past the 1% window;
    # no Gauss node of the uniform 400-step grid fell on (0.01, t_c) T, so the
    # violation went unseen there
    assert _switch_time(1.0, 99.95) > CLAMP_WINDOW_FRACTION
    with pytest.raises(ClampViolation, match="exceeds clamp 99.95 at t = 0.0100021, outside"):
        exact_fidelities(sps_schedule(1.0), 0.0, 0.0, DEFAULT_STEPS, 99.95)


def _singular_sample(t):
    """The sps phi ramp with theta fixed at pi/4, where sin(theta) = cos(theta)."""
    s = sps_schedule(1.0).sample(t)
    return s._replace(theta=np.full_like(s.phi, np.pi / 4), theta_dot=np.zeros_like(s.phi),
                      factor=np.full_like(s.phi, np.inf))


def test_singular_theta_detected():
    bad = InvariantSchedule(name="ansatz0", kind="ansatz", n=0.0, duration=1.0,
                            sample=_singular_sample, eta_plus_of=lambda t: np.zeros_like(np.asarray(t, float)))
    with pytest.raises(SingularTheta, match=r"sin\(theta\) - cos\(theta\) = 1\.110e-16 "
                       r"at t = 0\.01; the pulse constraint is singular there"):
        pulses_from_invariant(bad, make_grid(1.0, 100), DEFAULT_CLAMP)


def test_pulses_are_handedness_independent():
    # one pulse table serves both systems; handedness only flips the loop sign
    s = ansatz_schedule(1.1, 1.0)
    grid = make_grid(1.0, 500)
    pulses = pulses_from_invariant(s, grid, DEFAULT_CLAMP)
    wl, ql = schedule_hamiltonian(s, L, DEFAULT_CLAMP)(grid)
    wr, qr = schedule_hamiltonian(s, R, DEFAULT_CLAMP)(grid)
    np.testing.assert_array_equal(wl, wr)
    np.testing.assert_array_equal(ql, -qr)
    np.testing.assert_array_equal(wl, pulses.omega)
    np.testing.assert_array_equal(ql, L.coupling_sign * pulses.omega_q)


def test_pulse_csv_roundtrip(tmp_path):
    s = ansatz_schedule(1.07, 2.0)
    pulses = pulses_from_invariant(s, make_grid(2.0, 200), DEFAULT_CLAMP / 2.0)
    path = tmp_path / "pulses.csv"
    pulses.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    meta = dict(line[1:].split("=", 1) for line in lines if line.startswith("#"))
    meta = {key.strip(): value.strip() for key, value in meta.items()}
    assert lines[len(meta)] == "t,omega,omega_q,gamma"
    data = np.loadtxt(lines[len(meta) + 1:], delimiter=",")
    T = float(meta["T"])
    np.testing.assert_allclose(data[:, 0] * T, pulses.times, atol=1e-13)
    np.testing.assert_allclose(data[:, 1] / T, pulses.omega, rtol=1e-14)
    np.testing.assert_allclose(data[:, 2] / T, pulses.omega_q, rtol=1e-13, atol=1e-13)
    assert meta["kind"] == "ansatz" and float(meta["n"]) == pytest.approx(1.07)


def _per_row_pulse_csv(pulses, extra_metadata):
    """Reference writer: one f-string per sample, on numpy scalars."""
    meta = pulses.metadata()
    meta.update(extra_metadata)
    text = "".join(f"# {key} = {value}\n" for key, value in meta.items())
    text += PULSE_HEADER + "\n"
    T = pulses.duration
    for t, om, oq in zip(pulses.times, pulses.omega, pulses.omega_q):
        text += f"{t / T:.15g},{om * T:.15g},{oq * T:.15g},{LOOP_PHASE:.15g}\n"
    return text.encode()


@pytest.mark.parametrize("schedule", [sps_schedule(1.3), ansatz_schedule(1.1, 0.7)],
                         ids=["sps", "ansatz"])
def test_pulse_csv_matches_per_row_formatting(tmp_path, schedule):
    T = schedule.duration
    pulses = pulses_from_invariant(schedule, make_grid(T, 4000), DEFAULT_CLAMP / T)
    path = tmp_path / "pulses.csv"
    pulses.to_csv(path, extra_metadata={"config.steps": 4000})
    assert path.read_bytes() == _per_row_pulse_csv(pulses, {"config.steps": 4000})


@pytest.mark.parametrize("duration", [1.0, 3.0, 0.1])
def test_pulse_csv_formats_adversarial_values_like_per_row(tmp_path, duration):
    # signed zero, the smallest subnormal, tiny and huge magnitudes, integers
    # and values that need all 15 significant digits
    values = np.array([-0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 7.0, 123456789012345.0,
                       0.1 + 0.2, np.pi, -2.0 / 3.0, 1.0 / 7.0, 9.999999999999999e22])
    pulses = PulseSchedule(times=values[::-1].copy(), omega=values, omega_q=-values,
                           duration=duration, clamp_value=1e30)
    path = tmp_path / "pulses.csv"
    pulses.to_csv(path)
    assert path.read_bytes() == _per_row_pulse_csv(pulses, {})
    ints = np.arange(-3, 4)
    pulses = PulseSchedule(times=ints, omega=ints * 2, omega_q=ints, duration=duration,
                           clamp_value=10.0)
    pulses.to_csv(path)
    assert path.read_bytes() == _per_row_pulse_csv(pulses, {})


# ---------------------------------------------------------------------------
# dynamical-invariant condition and transport
# ---------------------------------------------------------------------------

def residual_max(schedule, handedness, times):
    s = schedule.sample(times)
    residual = invariant_residual(handedness, *_raw_pulses(s, np.sin(s.theta) - np.cos(s.theta)),
                                  s.phi, s.theta, s.phi_dot, s.theta_dot)
    return float(np.max(np.abs(residual)))


def test_dynamical_invariant_condition():
    times = np.linspace(0.02, 0.98, 1500)
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.07, 1.0)):
        for hand in (L, R):
            assert residual_max(schedule, hand, times) < 1e-8


def test_transport_of_zero_channel():
    # the zero-eigenvalue eigenvector is carried exactly (up to global phase);
    # the pulse cap is raised so the truncation bias of the constant-theta
    # schedule (2.9e-5 in overlap at the default cap) stays below the tolerance
    grid = make_grid(1.0, DEFAULT_STEPS)
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.12, 1.0)):
        for hand in (L, R):
            traj = propagate(schedule_hamiltonian(schedule, hand, 5000.0),
                             QuantumState.basis(2), grid)
            s = schedule.sample(grid)
            _, v0 = invariant_eigensystem(hand, s.phi, s.theta)[0]
            overlap = np.abs(np.einsum("kj,kj->k", v0.conj(), traj.states))
            assert np.min(overlap) > 1.0 - 1e-6


def test_plus_channel_phase_matches_closed_form():
    # propagating the +1 eigenvector accumulates exactly the closed-form phase;
    # this pins the inner sign of the ansatz phase from the dynamics alone
    n = 1.07
    schedule = ansatz_schedule(n, 1.0)
    grid = make_grid(1.0, DEFAULT_STEPS)
    _, vplus0 = invariant_eigensystem(L, 0.0, schedule.sample(0.0).theta)[1]
    traj = propagate(schedule_hamiltonian(schedule, L, DEFAULT_CLAMP), QuantumState(vplus0),
                     grid)
    for k in (DEFAULT_STEPS // 4, DEFAULT_STEPS // 2, 3 * DEFAULT_STEPS // 4):
        t = grid[k]
        s = schedule.sample(t)
        _, vplus = invariant_eigensystem(L, s.phi, s.theta)[1]
        overlap = np.vdot(vplus, traj.states[k])
        assert abs(overlap) > 1.0 - 1e-6
        measured = np.angle(overlap)
        closed = schedule.eta_plus_of(t)
        wrong_sign = -(n * np.sin(3 * s.phi) - s.phi)
        assert abs(np.angle(np.exp(1j * (measured - closed)))) < 1e-4
        assert abs(np.angle(np.exp(1j * (measured - wrong_sign)))) > 0.05


# ---------------------------------------------------------------------------
# channel phases
# ---------------------------------------------------------------------------

def test_lr_phase_sps_midpoint_value():
    phase = lr_phase(sps_schedule(1.0))
    assert phase.eta_plus(0.5) == pytest.approx(-np.log(np.tan(np.pi / 8)), abs=1e-9)
    assert abs(phase.eta_plus(1.0)) < 1e-9


def test_lr_phase_eta_zero_vanishes():
    phase = lr_phase(ansatz_schedule(1.07, 1.0))
    t = np.linspace(0, 1, 11)
    np.testing.assert_array_equal(phase.eta_zero(t), np.zeros_like(t))


def test_lr_phase_is_zero_at_its_anchor():
    # the anchor segment is empty; at t = 0 the ansatz integrand is 0/0
    for schedule in (ansatz_schedule(1.07, 1.0), sps_schedule(1.0)):
        phase = lr_phase(schedule)
        assert phase.eta_plus(phase.anchor_time) == 0.0


def test_lr_phase_matches_ansatz_closed_form():
    for n in (0.8, 1.07):
        schedule = ansatz_schedule(n, 1.0)
        phase = lr_phase(schedule)
        t = np.linspace(0.01, 1.0, 25)
        quadrature = phase.eta_plus(t)
        closed = schedule.eta_plus_of(t)
        assert np.max(np.abs(quadrature - closed)) < 1e-8


def test_lr_phase_sps_matches_log_form():
    schedule = sps_schedule(1.0)
    phase = lr_phase(schedule)
    t = np.linspace(0.05, 1.0, 12)
    np.testing.assert_allclose(phase.eta_plus(t), schedule.eta_plus_of(t), atol=1e-9)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_schedule_passes_for_both_families():
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.07, 1.0)):
        report = validate_schedule(schedule, DEFAULT_CLAMP)
        assert report.all_passed, report.to_text()


def test_validate_schedule_flags_singular_theta():
    bad = InvariantSchedule(name="sps", kind="sps", n=None, duration=1.0,
                            sample=_singular_sample, eta_plus_of=lambda t: np.zeros_like(np.asarray(t, float)))
    report = validate_schedule(bad, DEFAULT_CLAMP)
    assert not report.all_passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "theta singularity gap" in failed


def test_validate_schedule_fails_a_nan_derivative():
    # a NaN residual must fail its check, not read as 0: Python's max keeps
    # its running value when the new one is NaN
    s = ansatz_schedule(1.1, 1.0)

    def sample(t):
        good = s.sample(t)
        theta_dot = np.array(good.theta_dot, dtype=float)
        if theta_dot.size >= 1000:
            theta_dot[999] = np.nan     # one sample of each 2000-sample check
        return good._replace(theta_dot=theta_dot)

    bad = dataclasses.replace(s, sample=sample)
    report = validate_schedule(bad, DEFAULT_CLAMP)
    failed = {c.name: c.worst for c in report.checks if not c.passed}
    assert set(failed) == {"derivative consistency", "dynamical invariant"}, report.to_text()
    assert all(np.isnan(worst) for worst in failed.values())
    assert not report.all_passed


def test_validate_schedule_fails_a_nan_derivative_on_a_time_interval():
    # a NaN Omega_q is neither infinite nor over the clamp, so the invariant
    # check keeps its samples, and fails, instead of skipping them as clamped
    s = ansatz_schedule(1.1, 1.0)

    def sample(t):
        good = s.sample(t)
        t = np.asarray(t, dtype=float)
        return good._replace(theta_dot=np.where((t > 0.4) & (t < 0.6), np.nan, good.theta_dot))

    report = validate_schedule(dataclasses.replace(s, sample=sample), DEFAULT_CLAMP)
    failed = {c.name: c.worst for c in report.checks if not c.passed}
    assert set(failed) == {"derivative consistency", "dynamical invariant"}, report.to_text()
    assert all(np.isnan(worst) for worst in failed.values())


def _invariant_check_samples(schedule):
    """(omega, omega_q, sample) where validation checks the invariant, the sample kept as there."""
    T = schedule.duration
    window = CLAMP_WINDOW_FRACTION * T
    s = schedule.sample(np.linspace(window, T - window, VALIDATION_SAMPLES))
    omega, omega_q = _raw_pulses(s, np.sin(s.theta) - np.cos(s.theta))
    keep = np.isfinite(omega) & np.isfinite(omega_q) & (np.abs(omega_q) <= DEFAULT_CLAMP / T)
    return omega[keep], omega_q[keep], type(s)(*(field[keep] for field in s))


def _oracle_arguments(omega, omega_q, s):
    return omega, omega_q, s.phi, s.theta, s.phi_dot, s.theta_dot


def test_right_handed_invariant_residual_mirrors_the_left():
    # validate_schedule checks the left-handed system only; the right-handed
    # residual must be its level-swap mirror P R P, entry for entry
    schedules = [sps_schedule(T) for T in (1.0, 0.7)] + [
        ansatz_schedule(n, T) for n in (0.0, 0.65, 1.07, 1.1, 1.12, 2.0, -0.4)
        for T in (0.5, 1.0, 1.9)]
    for schedule in schedules:
        samples = _oracle_arguments(*_invariant_check_samples(schedule))
        left = invariant_residual(L, *samples)
        right = invariant_residual(R, *samples)
        np.testing.assert_array_equal(right, SWAP_1_3 @ left @ SWAP_1_3,
                                      err_msg=schedule.name)


_RNG = np.random.default_rng(18)
_RANDOM_SCHEDULES = [ansatz_schedule(_RNG.uniform(-0.5, 2.5), _RNG.uniform(0.3, 3.0))
                     for _ in range(5)] + [sps_schedule(_RNG.uniform(0.3, 3.0))]


@pytest.mark.parametrize("schedule", [sps_schedule(1.0)] + [
    ansatz_schedule(n, 1.0) for n in (0.0, 0.65, 1.1, 2.0)] + _RANDOM_SCHEDULES,
    ids=["sps", "ansatz0", "ansatz0.65", "ansatz1.1", "ansatz2"]
    + [f"random{k}" for k in range(len(_RANDOM_SCHEDULES))])
def test_component_major_invariant_residual_matches_matmul(schedule):
    # the three real components are the upper entries of the @ residual, bit
    # for bit; its diagonal is zero and its lower entries mirror the upper ones
    omega, omega_q, s = _invariant_check_samples(schedule)
    components = _invariant_residual(omega, omega_q, s.sin_phi, s.cos_phi, np.sin(s.theta),
                                     np.cos(s.theta), s.phi_dot, s.theta_dot)
    magnitude = np.abs(invariant_residual(L, *_oracle_arguments(omega, omega_q, s)))
    assert components.shape == (3, len(omega))
    for r, (i, j) in zip(components, ((0, 1), (0, 2), (1, 2))):
        assert np.array_equal(np.abs(r), magnitude[:, i, j]), (i, j)
        assert np.array_equal(magnitude[:, j, i], magnitude[:, i, j]), (i, j)
    assert not np.any(np.diagonal(magnitude, axis1=1, axis2=2))
    # validation.txt is the same, byte for byte, as with the @ residual
    report = validate_schedule(schedule, DEFAULT_CLAMP / schedule.duration)
    last = report.checks[-1]
    assert last.name == "dynamical invariant"
    worst = float(np.max(magnitude))
    expected_check = CheckResult(last.name, worst <= 1e-8, worst, 1e-8, last.note)
    expected_report = ValidationReport(report.schedule, report.checks[:-1] + (expected_check,))
    assert report.to_text() == expected_report.to_text()


def test_validate_schedule_fails_a_violated_invariant_condition():
    # pulses 1% off the invariant constraint fail the invariant check alone,
    # with a large finite residual
    s = ansatz_schedule(1.1, 1.0)

    def sample(t):
        good = s.sample(t)
        return good._replace(factor=1.01 * good.factor)

    bad = dataclasses.replace(s, sample=sample)
    report = validate_schedule(bad, DEFAULT_CLAMP)
    failed = {c.name: c.worst for c in report.checks if not c.passed}
    assert list(failed) == ["dynamical invariant"], report.to_text()
    assert np.isfinite(failed["dynamical invariant"])
    assert failed["dynamical invariant"] > 1e-3
    assert not report.all_passed
