import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from chiralpulse import (
    ClampViolation,
    Handedness,
    NoInteriorMinimum,
    QuantumState,
    ansatz_schedule,
    exact_fidelities,
    make_schedule,
    optimize_n,
    population_trace,
    pulses_from_invariant,
    q_alpha,
    q_delta,
    sps_schedule,
)
from chiralpulse import robustness
from chiralpulse.cli import DEFAULT_CLAMP, DEFAULT_STEPS
from chiralpulse.dynamics import _cf4_exponents, _cf4_products
from chiralpulse.robustness import golden_section, second_order_fidelity
from oracles import perturbed_hamiltonian, right_exact_fidelities

L, R = Handedness.LEFT, Handedness.RIGHT
DETUNING = np.diag([-1.0, 0.0, 1.0])   # |3><3| - |1><1|
# exact_fidelities returns the left-handed value; the right-handed one comes
# from an independent right-handed propagation
FIDELITY_OF = {L: exact_fidelities, R: right_exact_fidelities}
CLAMP = DEFAULT_CLAMP / 1.0     # the CLI's cap of a T = 1 schedule, in absolute units


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


@pytest.mark.parametrize("kind", ["sps", "oss", "osd"])
@pytest.mark.parametrize("T", [1e-8, 1e-6])
def test_q_at_extreme_durations_is_the_unit_duration_q(kind, T):
    # the amplitudes are integrals over t/T, so the absolute quadrature
    # tolerance means the same at every duration: q_alpha is T-free and
    # q_delta / T^2 is the T = 1 q_delta, to rounding
    schedule, unit = make_schedule(kind, T), make_schedule(kind, 1.0)
    assert q_alpha(schedule) == pytest.approx(q_alpha(unit), rel=1e-12, abs=0)
    assert q_delta(schedule) / T ** 2 == pytest.approx(q_delta(unit), rel=1e-12, abs=0)


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
    # the trace's final population comes from the same half-step exponentials,
    # multiplied in another order; the right-handed trace is the left-handed
    # propagation with p1 and p3 swapped, so for R it also checks that mirror
    # against a right-handed propagation (the oracle)
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.10, 1.0), ansatz_schedule(2.0, 0.3)):
        clamp = DEFAULT_CLAMP / schedule.duration
        traces = population_trace(schedule, DEFAULT_STEPS, clamp)
        for hand in (L, R):
            fidelity = FIDELITY_OF[hand](schedule, 0.0, 0.0, DEFAULT_STEPS, clamp)[0]
            assert fidelity > 1.0 - 1e-4
            final = traces[hand].data[-1, hand.target_level]
            assert final == pytest.approx(fidelity, rel=0, abs=1e-14)


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


def _node_times(schedule, steps):
    """The two Gauss nodes and the width of every step of the schedule's grid."""
    grid = schedule.grid(steps, CLAMP)
    h = np.diff(grid)
    return grid[:-1] + (0.5 - SQRT3 / 6.0) * h, grid[:-1] + (0.5 + SQRT3 / 6.0) * h, h


def test_exact_fidelity_matches_stepwise_propagation():
    # closed-form exponentials + tree product against an expm step loop over
    # the Hamiltonian matrices at the Gauss nodes
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.10, 1.0)):
        t1, t2, dts = _node_times(schedule, DEFAULT_STEPS)
        samples = [pulses_from_invariant(schedule, t, CLAMP) for t in (t1, t2)]
        for hand in (L, R):
            for alpha, delta in ((0.0, 0.0), (0.05, 0.3)):
                h1, h2 = (perturbed_hamiltonian(p.omega, p.omega_q, hand.coupling_sign,
                                                alpha, delta) for p in samples)
                total = _cf4_reference(h1, h2, dts)
                expected = abs(total[hand.target_level - 1, 1]) ** 2
                assert FIDELITY_OF[hand](schedule, alpha, delta, DEFAULT_STEPS,
                                         CLAMP)[0] == pytest.approx(
                    expected, rel=0, abs=1e-12)


@pytest.mark.parametrize("steps", [777, 4001])
def test_fidelity_from_pulses_matches_expm_sequential_product(steps):
    # odd step counts leave a trailing factor at every other tree level; the
    # sps pulses are clamped on the first step of their grid, up to the kink
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.10, 1.0)):
        t1, t2, dts = _node_times(schedule, steps)
        nodes = np.column_stack([t1, t2]).ravel()
        pulses = pulses_from_invariant(schedule, nodes, CLAMP)
        for hand in (L, R):
            for alpha, delta in ((0.0, 0.0), (0.05, 0.3)):
                # H of the dynamics module docstring, written out here
                h = np.zeros((2 * steps, 3, 3), dtype=complex)
                h[:, 0, 1] = h[:, 1, 0] = h[:, 1, 2] = h[:, 2, 1] = pulses.omega
                h[:, 0, 2] = hand.coupling_sign * 1j * pulses.omega_q
                h[:, 2, 0] = -hand.coupling_sign * 1j * pulses.omega_q
                h = (1.0 + alpha) * h + delta * DETUNING
                total = _cf4_reference(h[0::2], h[1::2], dts)
                expected = abs(total[hand.target_level - 1, 1]) ** 2
                value = FIDELITY_OF[hand](schedule, alpha, delta, steps, CLAMP)[0]
                assert value == pytest.approx(expected, rel=0, abs=1e-12)


def test_exact_fidelities_of_no_points_still_check_the_pulses():
    # a perturbative scan asks for no points: it gets no values, but the pulses
    # are sampled and checked as for an exact run
    values = exact_fidelities(ansatz_schedule(1.1, 1.0), [], 0.0, DEFAULT_STEPS, CLAMP)
    assert values.shape == (0,)
    with pytest.raises(ClampViolation, match="exceeds clamp 100"):
        exact_fidelities(ansatz_schedule(30.0, 1.0), [], 0.0, DEFAULT_STEPS, CLAMP)


def test_exact_fidelities_of_no_points_propagate_nothing(monkeypatch):
    # the pulses are sampled and checked, but no kernel runs on empty arrays
    def fail(*args):
        raise AssertionError("_cf4_products called for no points")

    monkeypatch.setattr(robustness, "_cf4_products", fail)
    values = exact_fidelities(make_schedule("osd", 1.0), [], 0.0, DEFAULT_STEPS, CLAMP)
    assert values.shape == (0,)


def test_exact_fidelities_reject_non_finite_amplitudes():
    for alpha, delta in ((np.nan, 0.0), (0.0, [0.1, np.inf])):
        with pytest.raises(ValueError, match="error amplitudes must be finite"):
            exact_fidelities(sps_schedule(1.0), alpha, delta, DEFAULT_STEPS, CLAMP)


def _dop853_fidelity(schedule, alpha, delta, hand, clamp):
    """Adaptive 8th-order Runge-Kutta (rtol = atol = 1e-12) on the perturbed H."""
    s = hand.coupling_sign
    detuning = delta * DETUNING

    def rhs(t, psi):
        p = pulses_from_invariant(schedule, np.array([t]), clamp)
        om, oq = p.omega[0], p.omega_q[0]
        h0 = np.array([[0.0, om, s * 1j * oq], [om, 0.0, om], [-s * 1j * oq, om, 0.0]])
        return -1j * (((1.0 + alpha) * h0 + detuning) @ psi)

    sol = solve_ivp(rhs, (0.0, schedule.duration), QuantumState.basis(2).amplitudes, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    assert sol.status == 0
    return abs(sol.y[hand.target_level - 1, -1]) ** 2


@pytest.mark.parametrize("scheme, alpha, delta, bound", [
    ("sps", 0.3, 1.0, 5e-8),            # 3.9e-11 measured; 2.3e-8 on the uniform grid
    ("ansatz", -0.3, -1.0 / 3.0, 5e-11),  # 2.3e-11
    ("ansatz", 0.3, 1.0 / 3.0, 5e-10),    # 2.4e-10
], ids=["sps_corner", "ansatz_alpha_min", "ansatz_alpha_max"])
def test_default_steps_accuracy_against_dop853(scheme, alpha, delta, bound):
    # the default 400 CF4 steps are 10-40x more accurate than the 4000-step
    # midpoint rule they replace (3.3e-7, 9.6e-8 and 8.4e-8 on these cases)
    schedule = sps_schedule(1.0) if scheme == "sps" else ansatz_schedule(1.10, 1.0)
    assert abs(exact_fidelities(schedule, alpha, delta, DEFAULT_STEPS, CLAMP)[0]
               - _dop853_fidelity(schedule, alpha, delta, L, CLAMP)) < bound


# the 11x11 (alpha, delta) box of the sps accuracy tests, alpha-major
BOX = (np.repeat(np.linspace(-0.3, 0.3, 11), 11), np.tile(np.linspace(-1.0, 1.0, 11), 11))


@functools.cache
def _sps_box_reference(clamp):
    """Exact sps fidelities on BOX at 6400 steps, its corners checked against DOP853."""
    schedule = sps_schedule(1.0)
    reference = exact_fidelities(schedule, *BOX, 6400, clamp)
    for k in (0, len(reference) - 1):       # (-0.3, -1) and (0.3, 1); 1.9e-11 at most
        assert abs(reference[k] - _dop853_fidelity(schedule, BOX[0][k], BOX[1][k], L,
                                                   clamp)) < 1e-10
    return reference


def _sps_box_error(steps, clamp):
    return float(np.max(np.abs(exact_fidelities(sps_schedule(1.0), *BOX, steps, clamp)
                               - _sps_box_reference(clamp))))


@pytest.mark.parametrize("clamp", [DEFAULT_CLAMP, 150.0, 1000.0])
def test_sps_error_at_default_steps_is_below_1e_9_at_every_clamp(clamp):
    # the clamp switch t_c is a grid point and the steps after it are graded:
    # 2.1e-11, 2.8e-11 and 9.9e-11 measured.  The uniform grid gave 3.4e-8
    # (one of its points sits 8e-7 T from t_c), 5.4e-6 and 1.5e-4
    assert _sps_box_error(DEFAULT_STEPS, clamp) < 1e-9


def test_sps_error_falls_16_fold_per_step_doubling():
    # fourth order on the graded grid: 16.3 measured between 100 and 200
    # steps at clamp 150; 2.8 on the uniform grid, whose steps straddle the kink
    ratio = _sps_box_error(100, 150.0) / _sps_box_error(200, 150.0)
    assert 12 <= ratio <= 20


def test_exact_fidelity_handedness_symmetry():
    schedule = ansatz_schedule(1.07, 1.0)
    for alpha, delta in ((0.05, 0.0), (0.0, 0.4), (0.08, -0.3)):
        fl = exact_fidelities(schedule, alpha, delta, DEFAULT_STEPS, CLAMP)[0]
        fr = right_exact_fidelities(schedule, alpha, delta, DEFAULT_STEPS, CLAMP)[0]
        assert abs(fl - fr) < 1e-6


@st.composite
def _random_pulses(draw):
    """A random uniform grid and real (Omega, Omega_q) samples at its Gauss nodes."""
    steps = draw(st.integers(1, 60))
    samples = arrays(float, 2 * steps, elements=st.floats(-20.0, 20.0))
    return np.linspace(0.0, 1.0, steps + 1), draw(samples), draw(samples)


@settings(max_examples=200, deadline=None)
@given(pulses=_random_pulses(), alpha=st.floats(-0.5, 0.5), delta=st.floats(-5.0, 5.0))
def test_mirror_symmetries_of_random_pulses(pulses, alpha, delta):
    # H_L(alpha, -delta) = -S conj(H_L(alpha, delta)) S, S = diag(1, -1, 1), holds
    # step by step in floating point, so F_L is exactly even in delta; and
    # P H_L(alpha, delta) P = H_R(alpha, -delta) (P swaps levels 1 and 3), so the
    # sweeps' right-handed columns, F_L, agree with a right-handed propagation.
    # The sweeps fold +-delta onto |delta|, so the kernel is called directly
    grid, omega, omega_q = pulses
    alphas, deltas = np.array([alpha, alpha]), np.array([delta, -delta])
    left, right = (_cf4_products(*_cf4_exponents(lambda nodes: (omega, sign * omega_q), grid),
                                 alphas, deltas)
                   for sign in (L.coupling_sign, R.coupling_sign))
    populations = np.abs(left[:, 1]) ** 2
    assert populations[:, 0].tolist() == populations[:, 1].tolist()
    f_right = abs(right[R.target_level - 1, 1, 0]) ** 2
    assert abs(populations[L.target_level - 1, 0] - f_right) <= 1e-13


def test_sps_q_is_the_closed_form_of_the_unclamped_schedule():
    # q is the curvature of F at zero error, F = 1 - alpha^2 q_alpha or
    # 1 - (delta^2 / 4) q_delta.  The sps closed forms integrate the unclamped
    # cot pulse; the clamped schedule's exact curvature (central differences
    # at eps = 1e-2, 1600 steps) is 2.26% below q_alpha and 0.87% above
    # q_delta at the default clamp.  No ansatz clamp is active, so the osd and
    # oss gaps are the differencing error, at most 1.1e-3
    eps = 1e-2
    amplitudes = [-eps, 0.0, eps]
    for label in ("sps", "oss", "osd"):
        schedule = make_schedule(label, 1.0)
        fa = exact_fidelities(schedule, amplitudes, 0.0, 1600, CLAMP)
        fd = exact_fidelities(schedule, 0.0, amplitudes, 1600, CLAMP)
        gap_alpha = -(fa[0] - 2 * fa[1] + fa[2]) / (2 * eps ** 2) / q_alpha(schedule) - 1
        gap_delta = -2 * (fd[0] - 2 * fd[1] + fd[2]) / eps ** 2 / q_delta(schedule) - 1
        if label == "sps":
            assert -0.024 <= gap_alpha <= -0.021
            assert 0.008 <= gap_delta <= 0.0095
        else:
            assert abs(gap_alpha) < 2e-3 and abs(gap_delta) < 2e-3


def test_quadratic_leading_order_recovers_q_alpha():
    # parabola fit of 1 - F_exact against alpha over |alpha| <= 0.02
    schedule = ansatz_schedule(1.07, 1.0)
    qa = q_alpha(schedule)
    alphas = np.linspace(-0.02, 0.02, 9)
    losses = np.array([1.0 - exact_fidelities(schedule, a, 0.0, DEFAULT_STEPS, CLAMP)[0]
                       for a in alphas])
    coeff = np.polyfit(alphas, losses, 2)[0]
    assert coeff == pytest.approx(qa, rel=0.05)


def test_perturbative_remainder_is_third_order_bounded():
    # |F_exact - F_pert| / eps^3 stays bounded (constant recorded, not prescribed)
    schedule = ansatz_schedule(1.07, 1.0)
    qa = q_alpha(schedule)
    constants = []
    for eps in (0.01, 0.02, 0.04):
        exact = exact_fidelities(schedule, eps, 0.0, DEFAULT_STEPS, CLAMP)[0]
        diff = abs(exact - (1.0 - eps ** 2 * qa))
        constants.append(diff / eps ** 3)
    assert max(constants) < 0.2, f"remainder constants {constants}"


def test_optimize_n_systematic_finds_known_optimum():
    result = optimize_n("systematic", (0.9, 1.3), 1e-3, 1.0)
    assert result.n_star == pytest.approx(1.07, abs=0.02)
    assert result.q_min == pytest.approx(0.52, abs=0.02)


def test_optimize_n_detuning_location():
    result = optimize_n("detuning", (0.9, 1.3), 1e-3, 1.0)
    assert result.n_star == pytest.approx(1.12, abs=0.02)
    assert result.q_min < q_delta(sps_schedule(1.0))


def test_optimize_n_refinement_consistency():
    coarse = optimize_n("systematic", (0.9, 1.3), 1e-2, 1.0)
    fine = optimize_n("systematic", (1.04, 1.09), 1e-4, 1.0)
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
        optimize_n("systematic", (0.2, 0.6), 1e-3, 1.0)


def test_optimize_n_rejects_bad_arguments():
    for kind in ("nonsense", "alpha"):     # exactly systematic or detuning
        with pytest.raises(ValueError, match="unknown sensitivity kind"):
            optimize_n(kind, (0.5, 1.5), 1e-3, 1.0)
    with pytest.raises(ValueError):
        optimize_n("systematic", (1.5, 0.5), 1e-3, 1.0)
    for n_range in ((-1e308, 1e308), (0.5, np.inf), (np.nan, 1.5)):   # hi - lo not finite
        with pytest.raises(ValueError, match="invalid n range"):
            optimize_n("systematic", n_range, 1e-3, 1.0)
    with pytest.raises(ValueError):
        optimize_n("systematic", (0.5, 1.5), -1.0, 1.0)

