import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from chiralpulse import (
    ErrorModel,
    Handedness,
    NoInteriorMinimum,
    PulseSchedule,
    ansatz_schedule,
    basis_state,
    default_clamp,
    exact_fidelity,
    make_grid,
    optimize_n,
    pulses_from_invariant,
    q_alpha,
    q_delta,
    schedule_hamiltonian,
    sps_schedule,
)
from chiralpulse.dynamics import DEFAULT_STEPS
from chiralpulse.robustness import (
    fidelity_from_pulses,
    golden_section,
    second_order_fidelity,
)

L, R = Handedness.LEFT, Handedness.RIGHT
DETUNING = np.diag([-1.0, 0.0, 1.0])   # |3><3| - |1><1|


def test_error_model_kinds():
    assert ErrorModel.systematic(0.1) == ErrorModel(alpha=0.1, delta=0.0)
    assert ErrorModel.detuning(0.5) == ErrorModel(alpha=0.0, delta=0.5)
    with pytest.raises(ValueError):
        ErrorModel(alpha=np.nan)


def test_q_alpha_known_values():
    # frozen against adaptive quadrature at 1e-12 and cross-checked by exact
    # propagation: (1 - F)/alpha^2 -> q_alpha as alpha -> 0
    assert q_alpha(ansatz_schedule(1.07, 1.0)) == pytest.approx(0.5209, abs=2e-3)
    assert q_alpha(sps_schedule(1.0)) == pytest.approx(1.11726, abs=1e-4)
    assert q_alpha(sps_schedule(1.0)) > 0.52


def test_q_delta_known_values():
    assert q_delta(sps_schedule(1.0)) == pytest.approx(0.283713, abs=1e-5)
    assert q_delta(sps_schedule(1.0)) > 0.0
    assert q_delta(ansatz_schedule(1.12, 1.0)) == pytest.approx(0.016416, abs=2e-4)
    # the ansatz optimum beats the linear-ramp schedule by more than an order
    assert q_delta(ansatz_schedule(1.12, 1.0)) < 0.1 * q_delta(sps_schedule(1.0))


def test_q_alpha_is_duration_free():
    assert q_alpha(ansatz_schedule(1.0, 2.5)) == pytest.approx(
        q_alpha(ansatz_schedule(1.0, 1.0)), rel=1e-9)


def test_q_delta_scales_with_duration_squared():
    q1 = q_delta(sps_schedule(1.0))
    q2 = q_delta(sps_schedule(2.0))
    assert q2 == pytest.approx(4.0 * q1, rel=1e-9)


def test_perturbative_fidelity_identities():
    schedule = ansatz_schedule(1.07, 1.0)
    qa = q_alpha(schedule)
    qd = q_delta(schedule)
    for amp in (0.01, 0.1, 0.3):
        assert 1.0 - second_order_fidelity("systematic", amp, qa) == \
            pytest.approx(amp ** 2 * qa, rel=1e-12)
        assert 1.0 - second_order_fidelity("detuning", amp, qd) == \
            pytest.approx(amp ** 2 / 4 * qd, rel=1e-12)


def test_perturbative_fidelity_zero_error():
    for kind, measure in (("systematic", q_alpha), ("detuning", q_delta)):
        assert second_order_fidelity(kind, 0.0, measure(sps_schedule(1.0))) == 1.0


def test_exact_fidelity_no_error_full_transfer():
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.10, 1.0)):
        for hand in (L, R):
            assert exact_fidelity(schedule, ErrorModel(), hand) > 1.0 - 1e-4


SQRT3 = np.sqrt(3.0)


def _cf4_reference(h1, h2, dts):
    """U of the CF4 steps by scipy's expm, from (N,3,3) samples at the two Gauss nodes.

    Each step applies exp(-i (h/2) 2(a1 H1 + a2 H2)) and then
    exp(-i (h/2) 2(a2 H1 + a1 H2)), a1 = 1/4 + sqrt(3)/6, a2 = 1/4 - sqrt(3)/6.
    """
    a1, a2 = 0.25 + SQRT3 / 6.0, 0.25 - SQRT3 / 6.0
    half = 0.5 * dts[:, None, None]
    first = expm(-1j * half * 2.0 * (a1 * h1 + a2 * h2))
    second = expm(-1j * half * 2.0 * (a2 * h1 + a1 * h2))
    total = np.eye(3, dtype=complex)
    for u1, u2 in zip(first, second):
        total = u2 @ (u1 @ total)
    return total


def _node_times(steps):
    grid = make_grid(1.0, steps)
    h = np.diff(grid)
    return grid[:-1] + (0.5 - SQRT3 / 6.0) * h, grid[:-1] + (0.5 + SQRT3 / 6.0) * h, h


def test_exact_fidelity_matches_stepwise_propagation():
    # closed-form exponentials + tree product against an expm step loop over
    # the Hamiltonian callable sampled at the Gauss nodes
    t1, t2, dts = _node_times(DEFAULT_STEPS)
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.10, 1.0)):
        for hand in (L, R):
            ham = schedule_hamiltonian(schedule, hand)
            for error in (ErrorModel(), ErrorModel(alpha=0.05, delta=0.3)):
                h1, h2 = ((1.0 + error.alpha) * ham(t) + error.delta * DETUNING
                          for t in (t1, t2))
                total = _cf4_reference(h1, h2, dts)
                expected = abs(total[hand.target_level - 1, 1]) ** 2
                assert exact_fidelity(schedule, error, hand) == pytest.approx(
                    expected, rel=0, abs=1e-12)


@pytest.mark.parametrize("steps", [777, 4001])
def test_fidelity_from_pulses_matches_expm_sequential_product(steps):
    # odd step counts leave a trailing factor at every other tree level; the
    # sps pulses are clamped, with a kink, inside the first and last 1%
    t1, t2, dts = _node_times(steps)
    nodes = np.column_stack([t1, t2]).ravel()
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.10, 1.0)):
        pulses = pulses_from_invariant(schedule, nodes)
        for hand in (L, R):
            for error in (ErrorModel(), ErrorModel(alpha=0.05, delta=0.3)):
                # H of the dynamics module docstring, written out here
                h = np.zeros((2 * steps, 3, 3), dtype=complex)
                h[:, 0, 1] = h[:, 1, 0] = h[:, 1, 2] = h[:, 2, 1] = pulses.omega
                h[:, 0, 2] = hand.coupling_sign * 1j * pulses.omega_q
                h[:, 2, 0] = -hand.coupling_sign * 1j * pulses.omega_q
                h = (1.0 + error.alpha) * h + error.delta * DETUNING
                total = _cf4_reference(h[0::2], h[1::2], dts)
                expected = abs(total[hand.target_level - 1, 1]) ** 2
                assert fidelity_from_pulses(pulses, dts, error, hand) == pytest.approx(
                    expected, rel=0, abs=1e-12)


def test_fidelity_from_pulses_needs_two_samples_per_step():
    grid = make_grid(1.0, 100)
    dts = np.diff(grid)
    midpoints = pulses_from_invariant(sps_schedule(1.0), grid[:-1] + 0.5 * dts)
    with pytest.raises(ValueError, match="100 pulse samples for 100 steps"):
        fidelity_from_pulses(midpoints, dts, ErrorModel(), L)


def _dop853_fidelity(schedule, error, hand):
    """Adaptive 8th-order Runge-Kutta (rtol = atol = 1e-12) on the perturbed H."""
    clamp = default_clamp(schedule.duration)
    s = hand.coupling_sign
    detuning = error.delta * DETUNING

    def rhs(t, psi):
        p = pulses_from_invariant(schedule, np.array([t]), clamp)
        om, oq = p.omega[0], p.omega_q[0]
        h0 = np.array([[0.0, om, s * 1j * oq], [om, 0.0, om], [-s * 1j * oq, om, 0.0]])
        return -1j * (((1.0 + error.alpha) * h0 + detuning) @ psi)

    sol = solve_ivp(rhs, (0.0, schedule.duration), basis_state(2), method="DOP853",
                    rtol=1e-12, atol=1e-12)
    assert sol.status == 0
    return abs(sol.y[hand.target_level - 1, -1]) ** 2


@pytest.mark.parametrize("scheme, alpha, delta, bound", [
    ("sps", 0.3, 1.0, 5e-8),            # the clamp kink; 2.3e-8 measured
    ("ansatz", -0.3, -1.0 / 3.0, 5e-11),  # 2.3e-11
    ("ansatz", 0.3, 1.0 / 3.0, 5e-10),    # 2.4e-10
], ids=["sps_corner", "ansatz_alpha_min", "ansatz_alpha_max"])
def test_default_steps_accuracy_against_dop853(scheme, alpha, delta, bound):
    # the default 400 CF4 steps are 10-40x more accurate than the 4000-step
    # midpoint rule they replace (3.3e-7, 9.6e-8 and 8.4e-8 on these cases)
    schedule = sps_schedule(1.0) if scheme == "sps" else ansatz_schedule(1.10, 1.0)
    error = ErrorModel(alpha=alpha, delta=delta)
    assert abs(exact_fidelity(schedule, error, L)
               - _dop853_fidelity(schedule, error, L)) < bound


def test_exact_fidelity_handedness_symmetry():
    schedule = ansatz_schedule(1.07, 1.0)
    for error in (ErrorModel.systematic(0.05), ErrorModel.detuning(0.4),
                  ErrorModel(alpha=0.08, delta=-0.3)):
        fl = exact_fidelity(schedule, error, L)
        fr = exact_fidelity(schedule, error, R)
        assert abs(fl - fr) < 1e-6


@st.composite
def _random_pulses(draw):
    """Real (Omega, Omega_q) samples at the Gauss nodes of a random uniform grid."""
    steps = draw(st.integers(1, 60))
    samples = arrays(float, 2 * steps, elements=st.floats(-20.0, 20.0))
    omega, omega_q = draw(samples), draw(samples)
    nodes = np.linspace(0.0, 1.0, 2 * steps)    # unused by the propagation
    return PulseSchedule(times=nodes, omega=omega, omega_q=omega_q, duration=1.0,
                         clamp_value=20.0), np.full(steps, 1.0 / steps)


@settings(max_examples=200, deadline=None)
@given(pulses=_random_pulses(), alpha=st.floats(-0.5, 0.5), delta=st.floats(-5.0, 5.0))
def test_mirror_symmetries_of_random_pulses(pulses, alpha, delta):
    # H_L(alpha, -delta) = -S conj(H_L(alpha, delta)) S, S = diag(1, -1, 1), holds
    # step by step in floating point, so F_L is exactly even in delta; and
    # P H_L(alpha, delta) P = H_R(alpha, -delta) (P swaps levels 1 and 3), so the
    # sweeps' right-handed columns, F_L, agree with a right-handed propagation
    pulses, dts = pulses
    f_left = fidelity_from_pulses(pulses, dts, ErrorModel(alpha, delta), L)
    assert fidelity_from_pulses(pulses, dts, ErrorModel(alpha, -delta), L) == f_left
    f_right = fidelity_from_pulses(pulses, dts, ErrorModel(alpha, delta), R)
    assert abs(f_left - f_right) <= 1e-13


def test_quadratic_leading_order_recovers_q_alpha():
    # parabola fit of 1 - F_exact against alpha over |alpha| <= 0.02
    schedule = ansatz_schedule(1.07, 1.0)
    qa = q_alpha(schedule)
    alphas = np.linspace(-0.02, 0.02, 9)
    losses = np.array([1.0 - exact_fidelity(schedule, ErrorModel.systematic(a), L)
                       for a in alphas])
    coeff = np.polyfit(alphas, losses, 2)[0]
    assert coeff == pytest.approx(qa, rel=0.05)


def test_perturbative_remainder_is_third_order_bounded():
    # |F_exact - F_pert| / eps^3 stays bounded (constant recorded, not prescribed)
    schedule = ansatz_schedule(1.07, 1.0)
    qa = q_alpha(schedule)
    constants = []
    for eps in (0.01, 0.02, 0.04):
        diff = abs(exact_fidelity(schedule, ErrorModel.systematic(eps), L)
                   - (1.0 - eps ** 2 * qa))
        constants.append(diff / eps ** 3)
    assert max(constants) < 0.2, f"remainder constants {constants}"


def test_optimize_n_systematic_finds_known_optimum():
    result = optimize_n("systematic", (0.9, 1.3), tolerance=1e-3)
    assert result.n_star == pytest.approx(1.07, abs=0.02)
    assert result.q_min == pytest.approx(0.52, abs=0.02)


def test_optimize_n_detuning_location():
    result = optimize_n("detuning", (0.9, 1.3), tolerance=1e-3)
    assert result.n_star == pytest.approx(1.12, abs=0.02)
    assert result.q_min < q_delta(sps_schedule(1.0))


def test_optimize_n_refinement_consistency():
    coarse = optimize_n("systematic", (0.9, 1.3), tolerance=1e-2)
    fine = optimize_n("systematic", (1.04, 1.09), tolerance=1e-4)
    assert abs(coarse.n_star - fine.n_star) < 2e-2
    assert fine.q_min <= coarse.q_min + 1e-10


def test_golden_section_stops_below_float_spacing():
    # a bracket width of 1e-17 is below the float spacing near 1.06: never reached
    calls = []

    def objective(x):
        calls.append(x)
        if len(calls) > 200:
            raise AssertionError("golden_section did not terminate")
        return (x - 1.0648) ** 2

    assert golden_section(objective, 1.06, 1.07, 1e-17) == pytest.approx(1.0648, abs=1e-8)


def test_optimize_n_boundary_minimum_raises():
    # q_alpha decreases monotonically toward the upper edge on [0.2, 0.6]
    with pytest.raises(NoInteriorMinimum):
        optimize_n("systematic", (0.2, 0.6), tolerance=1e-3)


def test_optimize_n_rejects_bad_arguments():
    for kind in ("nonsense", "alpha"):     # exactly systematic or detuning
        with pytest.raises(ValueError, match="unknown sensitivity kind"):
            optimize_n(kind)
    with pytest.raises(ValueError):
        optimize_n("systematic", (1.5, 0.5))
    with pytest.raises(ValueError):
        optimize_n("systematic", tolerance=-1.0)

