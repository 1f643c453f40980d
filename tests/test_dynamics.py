import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from chiralpulse import invariants
from chiralpulse import (
    Handedness,
    NonFiniteHamiltonian,
    QuantumState,
    basis_state,
    hamiltonian_stack,
    make_grid,
    propagate,
    schedule_hamiltonian,
    sps_schedule,
)
from chiralpulse.dynamics import ordered_product, step_propagators
from chiralpulse.errors import ClampViolation

L, R = Handedness.LEFT, Handedness.RIGHT


def test_build_hamiltonian_left_example():
    h = hamiltonian_stack([1.0], [2.0], L.coupling_sign)[0]
    expected = np.array([[0, 1, -2j], [1, 0, 1], [2j, 1, 0]], dtype=complex)
    np.testing.assert_array_equal(h, expected)
    # error terms: (1 + alpha) * H + delta * (|3><3| - |1><1|)
    om, oq, alpha, delta = [0.3, 1.0, 2.5], [1.7, -2.0, 0.0], 0.07, -0.4
    np.testing.assert_array_equal(
        hamiltonian_stack(om, oq, L.coupling_sign, alpha, delta),
        (1 + alpha) * hamiltonian_stack(om, oq, L.coupling_sign)
        + delta * np.diag([-1.0, 0.0, 1.0]))


def test_build_hamiltonian_right_sign_flip():
    h = hamiltonian_stack([1.0], [2.0], R.coupling_sign)[0]
    expected = np.array([[0, 1, 2j], [1, 0, 1], [-2j, 1, 0]], dtype=complex)
    np.testing.assert_array_equal(h, expected)


def test_build_hamiltonian_zero_couplings():
    h = hamiltonian_stack([0.0], [0.0], R.coupling_sign)
    np.testing.assert_array_equal(h, np.zeros((1, 3, 3), dtype=complex))


def test_left_right_related_by_omega_q_negation():
    om, oq = np.array([0.3, 2.0]), np.array([1.7, -0.4])
    hr = hamiltonian_stack(om, oq, R.coupling_sign)
    hl_neg = hamiltonian_stack(om, -oq, L.coupling_sign)
    np.testing.assert_array_equal(hr, hl_neg)


def test_hermiticity_exact():
    rng = np.random.default_rng(7)
    om, oq = rng.uniform(0, 5, 50), rng.uniform(-5, 5, 50)
    for hand in (L, R):
        for alpha, delta in ((0.0, 0.0), (rng.uniform(-0.3, 0.3), rng.uniform(-1, 1))):
            h = hamiltonian_stack(om, oq, hand.coupling_sign, alpha, delta)
            np.testing.assert_array_equal(h, h.conj().transpose(0, 2, 1))


def test_quantum_state_normalization_guard():
    QuantumState(np.array([0, 1, 0], dtype=complex))
    with pytest.raises(ValueError):
        QuantumState(np.array([0, 1.1, 0], dtype=complex))


def test_zero_hamiltonian_is_identity_evolution():
    traj = propagate(lambda t: np.zeros((len(t), 3, 3), complex),
                     QuantumState.basis(2), make_grid(1.0, 100))
    np.testing.assert_allclose(traj.states[-1], basis_state(2), atol=1e-14)


def test_sps_discrimination_left_and_right():
    grid = make_grid(1.0, 4000)
    schedule = sps_schedule(1.0)
    for hand, level in ((L, 3), (R, 1)):
        traj = propagate(schedule_hamiltonian(schedule, hand),
                         QuantumState.basis(2), grid)
        pops = traj.populations[-1]
        assert pops[level - 1] > 1.0 - 1e-4
        assert traj.norm_deviation() < 1e-10


def test_norm_preserved_everywhere():
    schedule = sps_schedule(1.0)
    traj = propagate(schedule_hamiltonian(schedule, L),
                     QuantumState.basis(2), make_grid(1.0, 2000))
    sums = traj.populations.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-10


def test_populations_match_amplitudes():
    traj = propagate(schedule_hamiltonian(sps_schedule(1.0), R),
                     QuantumState.basis(2), make_grid(1.0, 500))
    np.testing.assert_allclose(traj.populations, np.abs(traj.states) ** 2)


def test_scalar_only_callable_raises():
    # propagate calls the callable once on the midpoint array; a callable that
    # returns one 3x3 matrix is rejected by shape, not looped over the times
    h = schedule_hamiltonian(sps_schedule(1.0), L)(np.array([0.5]))[0]
    with pytest.raises(ValueError, match=r"shape \(3, 3\) for 300 times"):
        propagate(lambda t: h, QuantumState.basis(2), make_grid(1.0, 300))


def test_library_error_is_not_resampled(monkeypatch):
    # propagate samples the callable once: a ChiralPulseError it raises
    # propagates without a second call
    calls = []
    original = invariants.pulses_from_invariant

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(invariants, "pulses_from_invariant", counting)
    ham = schedule_hamiltonian(sps_schedule(1.0), L, clamp=1.0)
    with pytest.raises(ClampViolation):
        propagate(ham, QuantumState.basis(2), make_grid(1.0, 4000))
    assert len(calls) == 1


def _amplitudes(bound):
    # eigvalsh squares off-diagonal entries, which underflow near 1e-154 and
    # cost the reference itself ~1e-12 accuracy; the kernel is not at fault
    return st.floats(-bound, bound).filter(lambda x: x == 0.0 or abs(x) > 1e-100)


@settings(max_examples=300, deadline=None)
@given(omega=_amplitudes(200.0), omega_q=_amplitudes(200.0), alpha=st.floats(-0.5, 0.5),
       delta=_amplitudes(5.0), sign=st.sampled_from((-1, 1)), dt=st.floats(0.0, 0.5))
def test_step_propagator_closed_form(omega, omega_q, alpha, delta, sign, dt):
    h = hamiltonian_stack([omega], [omega_q], sign, alpha, delta)
    w, q, d = h[0, 0, 1].real, h[0, 0, 2].imag, h[0, 2, 2].real
    r = math.hypot(math.sqrt(2.0) * w, q, d)
    np.testing.assert_allclose(np.linalg.eigvalsh(h)[0], [-r, 0.0, r],
                               rtol=0, atol=1e-13 * r)
    u = step_propagators(h, np.array([dt]))[0]
    np.testing.assert_allclose(u, expm(-1j * h[0] * dt), rtol=0, atol=1e-13)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(3), rtol=0, atol=1e-14)


def test_step_propagator_of_zero_pulses_is_identity():
    h = hamiltonian_stack(np.zeros(3), np.zeros(3), L.coupling_sign, alpha=0.2)
    props = step_propagators(h, np.array([0.1, 0.5, 2.0]))
    np.testing.assert_array_equal(props, np.broadcast_to(np.eye(3), (3, 3, 3)))


@pytest.mark.parametrize("length", [1, 2, 3, 7, 1001])
def test_ordered_product_matches_sequential_product(length):
    rng = np.random.default_rng(length)
    h = hamiltonian_stack(rng.uniform(-5, 5, length), rng.uniform(-5, 5, length),
                          R.coupling_sign, 0.1, rng.uniform(-1, 1))
    props = step_propagators(h, rng.uniform(0.0, 0.2, length))
    sequential = reduce(lambda acc, u: u @ acc, props, np.eye(3, dtype=complex))
    # step_propagators returns a transposed view; a C-contiguous copy and an
    # (N,3,3) view with swapped strides must give the same product
    swapped = np.ascontiguousarray(props.transpose(0, 2, 1)).transpose(0, 2, 1)
    for stack in (props, np.ascontiguousarray(props), swapped):
        np.testing.assert_allclose(ordered_product(stack), sequential, rtol=0, atol=1e-13)


def test_second_order_convergence_on_smooth_schedule():
    from chiralpulse import ansatz_schedule
    schedule = ansatz_schedule(0.9, 1.0)
    ham = schedule_hamiltonian(schedule, L)
    ref = propagate(ham, QuantumState.basis(2), make_grid(1.0, 32000)).states[-1]
    errs = []
    for steps in (500, 1000):
        fin = propagate(ham, QuantumState.basis(2), make_grid(1.0, steps)).states[-1]
        errs.append(np.linalg.norm(fin - ref))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 6.0, f"halving the step gave error ratio {ratio}"


@pytest.mark.parametrize("matrix", [
    np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex),  # not Hermitian
    np.diag([1.0, 2.0, 3.0]).astype(complex),                   # tr H = 6
    np.diag([1.0, 1.0, -2.0]).astype(complex),                  # traceless, det H = -2
], ids=["non_hermitian", "nonzero_trace", "nonzero_det"])
def test_propagate_rejects_non_cyclic_hamiltonian(matrix):
    # the closed-form step is exact only for Hermitian, traceless, singular H
    with pytest.raises(ValueError, match="t=0.005"):
        propagate(lambda t: np.broadcast_to(matrix, (len(t), 3, 3)),
                  QuantumState.basis(2), make_grid(1.0, 100))


def test_non_finite_hamiltonian_raises():
    def bad(t):
        h = np.zeros((len(t), 3, 3), complex)
        h[:, 0, 1] = h[:, 1, 0] = np.where(t > 0.5, np.inf, 1.0)
        return h

    with pytest.raises(NonFiniteHamiltonian):
        propagate(bad, QuantumState.basis(2), make_grid(1.0, 50))


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(0.0, 100)
    with pytest.raises(ValueError):
        make_grid(1.0, 0)
    g = make_grid(2.0, 10)
    assert g[0] == 0.0 and g[-1] == 2.0 and len(g) == 11
