import numpy as np
import pytest
from scipy.linalg import expm

from chiralpulse import (
    ErrorModel,
    Handedness,
    NoInteriorMinimum,
    ansatz_schedule,
    basis_state,
    detuning_operator,
    exact_fidelity,
    make_grid,
    optimize_n,
    perturbative_fidelity,
    pulses_from_invariant,
    q_alpha,
    q_delta,
    schedule_hamiltonian,
    sensitivity_pair,
    sps_schedule,
)
from chiralpulse.robustness import fidelity_from_pulses

L, R = Handedness.LEFT, Handedness.RIGHT


def test_error_model_kinds():
    assert ErrorModel.systematic(0.1).kind == "systematic"
    assert ErrorModel.detuning(0.5).kind == "detuning"
    assert ErrorModel(alpha=0.1, delta=0.2).kind == "combined"
    assert ErrorModel().kind == "none"
    with pytest.raises(ValueError):
        ErrorModel(alpha=np.nan)


def test_detuning_operator_matrix():
    np.testing.assert_array_equal(detuning_operator(),
                                  np.diag([-1.0, 0.0, 1.0]).astype(complex))


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
        assert 1.0 - perturbative_fidelity(schedule, ErrorModel.systematic(amp)) == \
            pytest.approx(amp ** 2 * qa, rel=1e-12)
        assert 1.0 - perturbative_fidelity(schedule, ErrorModel.detuning(amp)) == \
            pytest.approx(amp ** 2 / 4 * qd, rel=1e-12)


def test_perturbative_fidelity_zero_error():
    assert perturbative_fidelity(sps_schedule(1.0), ErrorModel()) == 1.0


def test_perturbative_fidelity_rejects_combined():
    with pytest.raises(ValueError):
        perturbative_fidelity(sps_schedule(1.0), ErrorModel(alpha=0.1, delta=0.1))


def test_exact_fidelity_no_error_full_transfer():
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.10, 1.0)):
        for hand in (L, R):
            assert exact_fidelity(schedule, ErrorModel(), hand) > 1.0 - 1e-4


def test_exact_fidelity_matches_stepwise_propagation():
    # closed-form step propagators + tree product against an eigh step loop
    grid = make_grid(1.0, 4000)
    mids, dts = 0.5 * (grid[:-1] + grid[1:]), np.diff(grid)
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.10, 1.0)):
        for hand in (L, R):
            ham = schedule_hamiltonian(schedule, hand)
            for error in (ErrorModel(), ErrorModel(alpha=0.05, delta=0.3)):
                stack = (1.0 + error.alpha) * ham(mids) + error.delta * detuning_operator()
                w, v = np.linalg.eigh(stack)
                psi = basis_state(2)
                for k in range(len(stack)):
                    psi = v[k] @ (np.exp(-1j * w[k] * dts[k]) * (v[k].conj().T @ psi))
                expected = abs(psi[hand.target_level - 1]) ** 2
                assert exact_fidelity(schedule, error, hand) == pytest.approx(
                    expected, rel=0, abs=1e-12)


@pytest.mark.parametrize("steps", [777, 4001])
def test_fidelity_from_pulses_matches_expm_sequential_product(steps):
    # odd step counts leave a trailing factor at every other tree level; the
    # sps pulses are clamped, with a kink, inside the first and last 1%
    grid = make_grid(1.0, steps)
    mids, dts = 0.5 * (grid[:-1] + grid[1:]), np.diff(grid)
    for schedule in (sps_schedule(1.0), ansatz_schedule(1.10, 1.0)):
        pulses = pulses_from_invariant(schedule, mids)
        for hand in (L, R):
            for error in (ErrorModel(), ErrorModel(alpha=0.05, delta=0.3)):
                # H of the dynamics module docstring, written out here
                h = np.zeros((steps, 3, 3), dtype=complex)
                h[:, 0, 1] = h[:, 1, 0] = h[:, 1, 2] = h[:, 2, 1] = pulses.omega
                h[:, 0, 2] = hand.coupling_sign * 1j * pulses.omega_q
                h[:, 2, 0] = -hand.coupling_sign * 1j * pulses.omega_q
                h = (1.0 + error.alpha) * h + error.delta * np.diag([-1.0, 0.0, 1.0])
                total = np.eye(3, dtype=complex)
                for u in expm(-1j * h * dts[:, None, None]):
                    total = u @ total
                expected = abs(total[hand.target_level - 1, 1]) ** 2
                assert fidelity_from_pulses(pulses, dts, error, hand) == pytest.approx(
                    expected, rel=0, abs=1e-12)


def test_exact_fidelity_handedness_symmetry():
    schedule = ansatz_schedule(1.07, 1.0)
    for error in (ErrorModel.systematic(0.05), ErrorModel.detuning(0.4),
                  ErrorModel(alpha=0.08, delta=-0.3)):
        fl = exact_fidelity(schedule, error, L, steps=2000)
        fr = exact_fidelity(schedule, error, R, steps=2000)
        assert abs(fl - fr) < 1e-6


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
        diff = abs(exact_fidelity(schedule, ErrorModel.systematic(eps), L, steps=8000)
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


def test_optimize_n_boundary_minimum_raises():
    # q_alpha decreases monotonically toward the upper edge on [0.2, 0.6]
    with pytest.raises(NoInteriorMinimum):
        optimize_n("systematic", (0.2, 0.6), tolerance=1e-3)


def test_optimize_n_rejects_bad_arguments():
    with pytest.raises(ValueError):
        optimize_n("nonsense")
    with pytest.raises(ValueError):
        optimize_n("systematic", (1.5, 0.5))
    with pytest.raises(ValueError):
        optimize_n("systematic", tolerance=-1.0)


def test_sensitivity_pair_nonnegative():
    pair = sensitivity_pair(1.0)
    assert pair.q_alpha >= 0 and pair.q_delta >= 0
    assert pair.n == 1.0
