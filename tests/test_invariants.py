import numpy as np
import pytest

from chiralpulse import (
    ChiralPulseError,
    ClampViolation,
    Handedness,
    InvariantSchedule,
    PulseSchedule,
    QuantumState,
    SingularTheta,
    ansatz_schedule,
    invariant_eigensystem,
    invariant_matrix,
    invariant_matrix_dot,
    lr_phase,
    make_grid,
    make_schedule,
    propagate,
    pulses_from_invariant,
    schedule_hamiltonian,
    sps_schedule,
    validate_schedule,
)

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
    assert s.phi_of(0.0) == 0.0
    assert s.phi_of(1.0) == pytest.approx(np.pi / 2, abs=1e-15)
    assert s.theta_of(1.0) == pytest.approx(np.pi / 2, abs=1e-15)
    assert sps_schedule(2.0).phi_of(1.0) == pytest.approx(np.pi / 4, abs=1e-15)


def test_ansatz_boundary_conditions_across_n():
    for n in np.linspace(0.0, 2.0, 21):
        s = ansatz_schedule(n, 1.0)
        assert abs(s.phi_of(0.0)) < 1e-12
        assert abs(s.phi_of(1.0) - np.pi / 2) < 1e-12
        assert abs(s.theta_of(1.0) - np.pi / 2) < 1e-12


def test_ansatz_theta_starts_at_three_quarter_pi():
    for n in (0.3, 0.8, 1.07, 1.12):
        s = ansatz_schedule(n, 1.0)
        assert s.theta_of(1e-12) == pytest.approx(3 * np.pi / 4, abs=1e-9)


def test_ansatz_theta_continuous():
    for n in (0.0, 0.8, 1.07, 1.5, 3.0, 10.0):
        s = ansatz_schedule(n, 1.0)
        t = np.linspace(0, 1, 20001)
        theta = s.theta_of(t)
        assert np.max(np.abs(np.diff(theta))) < 0.01
        # the pulse denominator never vanishes: sin - cos = sqrt(2)/sqrt(X^2+1);
        # atol covers the rounding of theta (~4e-16 near 5*pi/4), which at
        # n = 10 is 1.2e-14 of the smallest value, 0.055
        phi = s.phi_of(t)
        x = np.sin(phi) * (3 * n * np.cos(3 * phi) + 1)
        np.testing.assert_allclose(np.sin(theta) - np.cos(theta),
                                   np.sqrt(2) / np.sqrt(x * x + 1),
                                   rtol=1e-14, atol=1e-15)


def test_schedule_derivatives_match_finite_differences():
    for s in (sps_schedule(1.3), ansatz_schedule(1.07, 1.3)):
        t = np.linspace(0.05, 1.25, 500)
        h = 1e-7
        fd_phi = (s.phi_of(t + h) - s.phi_of(t - h)) / (2 * h)
        fd_theta = (s.theta_of(t + h) - s.theta_of(t - h)) / (2 * h)
        np.testing.assert_allclose(fd_phi, s.phi_dot_of(t), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(fd_theta, s.theta_dot_of(t), rtol=1e-6, atol=1e-6)


def test_make_schedule_aliases():
    assert make_schedule("sps", 1.0).kind == "sps"
    assert make_schedule("oss", 1.0).n == pytest.approx(1.07)
    assert make_schedule("osd", 1.0).n == pytest.approx(1.12)
    assert make_schedule("ansatz", 2.0, 0.9).duration == 2.0
    with pytest.raises(ValueError):
        make_schedule("ansatz", 1.0)
    with pytest.raises(ValueError):
        make_schedule("nope", 1.0)


# ---------------------------------------------------------------------------
# pulse synthesis
# ---------------------------------------------------------------------------

def test_sps_pulses_match_closed_forms():
    s = sps_schedule(1.0)
    grid = make_grid(1.0, 1000)
    pulses = pulses_from_invariant(s, grid)
    np.testing.assert_allclose(pulses.omega, np.pi / 2, atol=1e-14)
    mid = np.argmin(np.abs(grid - 0.5))
    assert pulses.omega_q[mid] == pytest.approx(np.pi / 2, abs=1e-12)
    assert abs(pulses.omega_q[-1]) < 1e-12


def test_sps_pulse_scaling_with_duration():
    pulses = pulses_from_invariant(sps_schedule(2.0), make_grid(2.0, 800))
    np.testing.assert_allclose(pulses.omega, np.pi / 4, atol=1e-14)
    mid = len(pulses.times) // 2
    assert pulses.omega_q[mid] == pytest.approx((np.pi / 4) / np.tan(np.pi / 4), abs=1e-12)


def test_sps_clamping_confined_to_endpoint_window():
    grid = make_grid(1.0, 4000)
    pulses = pulses_from_invariant(sps_schedule(1.0), grid, clamp=100.0)
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
    pulses = pulses_from_invariant(s, grid, clamp=100.0)
    assert np.all(np.isfinite(pulses.omega_q))
    assert np.max(np.abs(pulses.omega_q)) < 100.0
    expected0 = 2.0 * (3 * n + 1) * np.pi / 2
    assert pulses.omega_q[0] == pytest.approx(expected0, rel=1e-12)


def test_ansatz_omega_positive_everywhere():
    for n in (0.0, 0.5, 1.07, 1.12, 2.0):
        pulses = pulses_from_invariant(ansatz_schedule(n, 1.0), make_grid(1.0, 2000))
        assert np.all(pulses.omega > 0)


def test_clamp_violation_outside_window():
    # a clamp so low that even the mid-pulse loop coupling exceeds it
    with pytest.raises(ClampViolation):
        pulses_from_invariant(sps_schedule(1.0), make_grid(1.0, 1000), clamp=1.0)


def test_singular_theta_detected():
    s = sps_schedule(1.0)
    bad = InvariantSchedule(
        kind="ansatz", n=0.0, duration=1.0,
        phi_of=s.phi_of, phi_dot_of=s.phi_dot_of,
        theta_of=lambda t: np.full_like(np.asarray(t, float), np.pi / 4),
        theta_dot_of=lambda t: np.zeros_like(np.asarray(t, float)),
        coupling_factor_of=lambda t: np.full_like(np.asarray(t, float), np.inf),
        eta_plus_of=lambda t: np.zeros_like(np.asarray(t, float)),
        eta_anchor=0.0,
    )
    with pytest.raises(SingularTheta):
        pulses_from_invariant(bad, make_grid(1.0, 100))


def test_pulses_are_handedness_independent():
    # one pulse table serves both systems; handedness only flips the loop sign
    s = ansatz_schedule(1.1, 1.0)
    grid = make_grid(1.0, 500)
    pulses = pulses_from_invariant(s, grid)
    hl = schedule_hamiltonian(s, L)(grid)
    hr = schedule_hamiltonian(s, R)(grid)
    np.testing.assert_array_equal(hl[:, 0, 1], hr[:, 0, 1])
    np.testing.assert_array_equal(hl[:, 0, 2], -hr[:, 0, 2])
    np.testing.assert_array_equal(hl[:, 0, 1], pulses.omega)
    np.testing.assert_array_equal(hl[:, 0, 2], -1j * pulses.omega_q)


def test_pulse_csv_roundtrip(tmp_path):
    s = ansatz_schedule(1.07, 2.0)
    pulses = pulses_from_invariant(s, make_grid(2.0, 200))
    path = tmp_path / "pulses.csv"
    pulses.to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0].startswith("#")
    assert "t,omega,omega_q,gamma" in text
    loaded = PulseSchedule.from_csv(path)
    np.testing.assert_allclose(loaded.times, pulses.times, atol=1e-13)
    np.testing.assert_allclose(loaded.omega, pulses.omega, rtol=1e-14)
    np.testing.assert_allclose(loaded.omega_q, pulses.omega_q, rtol=1e-13, atol=1e-13)
    assert loaded.kind == "ansatz" and loaded.n == pytest.approx(1.07)


@pytest.mark.parametrize("drop, replace, message", [
    ("# T = ", None, "missing metadata T"),
    ("# clamp_value = ", None, "missing metadata clamp_value"),
    ("t,omega,omega_q,gamma", None, "column header"),
    ("t,omega,omega_q,gamma", "t,omega,gamma", "column header"),
    ("0.5,", "0.5,1.0,2.0", "has 3 columns"),
], ids=["no-T", "no-clamp_value", "no-header", "wrong-header", "short-row"])
def test_pulse_csv_rejects_malformed_file(tmp_path, drop, replace, message):
    path = tmp_path / "pulses.csv"
    pulses_from_invariant(sps_schedule(1.0), make_grid(1.0, 10)).to_csv(path)
    lines = path.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(drop))
    lines[k:k + 1] = [] if replace is None else [replace]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ChiralPulseError, match=message):
        PulseSchedule.from_csv(path)


# ---------------------------------------------------------------------------
# dynamical-invariant condition and transport
# ---------------------------------------------------------------------------

def residual_max(schedule, handedness, times):
    from chiralpulse.invariants import _raw_pulses
    omega, omega_q = _raw_pulses(schedule, times)
    sgn = handedness.coupling_sign
    ham = np.zeros((len(times), 3, 3), complex)
    ham[:, 0, 1] = ham[:, 1, 0] = omega
    ham[:, 1, 2] = ham[:, 2, 1] = omega
    ham[:, 0, 2] = sgn * 1j * omega_q
    ham[:, 2, 0] = -sgn * 1j * omega_q
    phi, theta = schedule.phi_of(times), schedule.theta_of(times)
    inv = invariant_matrix(handedness, phi, theta)
    inv_dot = invariant_matrix_dot(handedness, phi, theta,
                                   schedule.phi_dot_of(times),
                                   schedule.theta_dot_of(times))
    return float(np.max(np.abs(inv_dot - 1j * (inv @ ham - ham @ inv))))


def test_dynamical_invariant_condition():
    times = np.linspace(0.02, 0.98, 1500)
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.07, 1.0)):
        for hand in (L, R):
            assert residual_max(schedule, hand, times) < 1e-8


def test_transport_of_zero_channel():
    # the zero-eigenvalue eigenvector is carried exactly (up to global phase);
    # the pulse cap is raised so the truncation bias of the constant-theta
    # schedule (2.9e-5 in overlap at the default cap) stays below the tolerance
    grid = make_grid(1.0, 4000)
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.12, 1.0)):
        for hand in (L, R):
            traj = propagate(schedule_hamiltonian(schedule, hand, clamp=5000.0),
                             QuantumState.basis(2), grid)
            _, v0 = invariant_eigensystem(hand, schedule.phi_of(grid),
                                          schedule.theta_of(grid))[0]
            overlap = np.abs(np.einsum("kj,kj->k", v0.conj(), traj.states))
            assert np.min(overlap) > 1.0 - 1e-6


def test_plus_channel_phase_matches_closed_form():
    # propagating the +1 eigenvector accumulates exactly the closed-form phase;
    # this pins the inner sign of the ansatz phase from the dynamics alone
    n = 1.07
    schedule = ansatz_schedule(n, 1.0)
    grid = make_grid(1.0, 8000)
    _, vplus0 = invariant_eigensystem(L, 0.0, schedule.theta_of(0.0))[1]
    traj = propagate(schedule_hamiltonian(schedule, L), QuantumState(vplus0), grid)
    for k in (2000, 4000, 6000):
        t = grid[k]
        _, vplus = invariant_eigensystem(L, schedule.phi_of(t), schedule.theta_of(t))[1]
        overlap = np.vdot(vplus, traj.states[k])
        assert abs(overlap) > 1.0 - 1e-6
        measured = np.angle(overlap)
        closed = schedule.eta_plus_of(t)
        wrong_sign = -(n * np.sin(3 * schedule.phi_of(t)) - schedule.phi_of(t))
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
        report = validate_schedule(schedule)
        assert report.all_passed, report.to_text()


def test_validate_schedule_flags_singular_theta():
    s = sps_schedule(1.0)
    bad = InvariantSchedule(
        kind="sps", n=None, duration=1.0,
        phi_of=s.phi_of, phi_dot_of=s.phi_dot_of,
        theta_of=lambda t: np.full_like(np.asarray(t, float), np.pi / 4),
        theta_dot_of=lambda t: np.zeros_like(np.asarray(t, float)),
        coupling_factor_of=lambda t: np.full_like(np.asarray(t, float), np.inf),
        eta_plus_of=lambda t: np.zeros_like(np.asarray(t, float)),
        eta_anchor=0.0,
    )
    report = validate_schedule(bad)
    assert not report.all_passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "theta singularity gap" in failed
