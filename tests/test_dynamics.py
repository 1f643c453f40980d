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
    make_grid,
    propagate,
    schedule_hamiltonian,
    sps_schedule,
)
from chiralpulse.cli import DEFAULT_CLAMP, DEFAULT_STEPS
from chiralpulse.dynamics import (
    _cf4_exponents,
    _half_step_exponentials,
    _tree_product,
    _tree_workspace,
)
from chiralpulse.errors import ClampViolation
from oracles import hamiltonian_stack, perturbed_hamiltonian

L, R = Handedness.LEFT, Handedness.RIGHT


def test_build_hamiltonian_left_example():
    h = hamiltonian_stack([1.0], [2.0], L.coupling_sign)[0]
    expected = np.array([[0, 1, -2j], [1, 0, 1], [2j, 1, 0]], dtype=complex)
    np.testing.assert_array_equal(h, expected)
    # error terms: (1 + alpha) * H + delta * (|3><3| - |1><1|)
    om, oq, alpha, delta = [0.3, 1.0, 2.5], [1.7, -2.0, 0.0], 0.07, -0.4
    np.testing.assert_array_equal(
        perturbed_hamiltonian(om, oq, L.coupling_sign, alpha, delta),
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
            h = perturbed_hamiltonian(om, oq, hand.coupling_sign, alpha, delta)
            np.testing.assert_array_equal(h, h.conj().transpose(0, 2, 1))


def test_quantum_state_normalization_guard():
    QuantumState(np.array([0, 1, 0], dtype=complex))
    with pytest.raises(ValueError):
        QuantumState(np.array([0, 1.1, 0], dtype=complex))


def test_quantum_state_converts_to_an_array():
    # numpy 2 passes copy= to __array__; without the keyword it warns
    state = QuantumState.basis(2)
    np.testing.assert_array_equal(np.array(state), [0, 1, 0])
    copied = np.array(state, copy=True)
    assert not np.shares_memory(copied, state.amplitudes)
    copied[1] = 0.0
    assert state.amplitudes[1] == 1.0
    assert np.asarray(state) is state.amplitudes
    assert np.asarray(state, dtype=np.complex64).dtype == np.complex64
    with pytest.raises(ValueError, match="level must be 1, 2 or 3, got 4"):
        QuantumState.basis(4)


@pytest.mark.parametrize("initial, message", [
    (np.array([1, 1, 0]), "state norm\\^2 deviates from 1 by 1.000e\\+00"),
    (np.array([1, 0]), r"state must be a complex 3-vector, got shape \(2,\)"),
], ids=["unnormalized", "two_levels"])
def test_propagate_rejects_a_raw_initial_state_that_is_not_a_state(initial, message):
    # a raw vector is checked as a QuantumState is: an unnormalized one would
    # give populations that do not sum to 1
    couplings = schedule_hamiltonian(sps_schedule(1.0), L, DEFAULT_CLAMP)
    with pytest.raises(ValueError, match=message):
        propagate(couplings, initial, make_grid(1.0, 50))
    raw = propagate(couplings, np.array([0, 1, 0]), make_grid(1.0, 50))
    np.testing.assert_array_equal(
        raw.states, propagate(couplings, QuantumState.basis(2), make_grid(1.0, 50)).states)


def test_zero_hamiltonian_is_identity_evolution():
    traj = propagate(lambda t: (np.zeros(len(t)), np.zeros(len(t))),
                     QuantumState.basis(2), make_grid(1.0, 100))
    np.testing.assert_allclose(traj.states[-1], QuantumState.basis(2).amplitudes,
                               atol=1e-14)


def test_sps_discrimination_left_and_right():
    grid = make_grid(1.0, DEFAULT_STEPS)
    schedule = sps_schedule(1.0)
    for hand, level in ((L, 3), (R, 1)):
        traj = propagate(schedule_hamiltonian(schedule, hand, DEFAULT_CLAMP),
                         QuantumState.basis(2), grid)
        pops = traj.populations[-1]
        assert pops[level - 1] > 1.0 - 1e-4
        assert traj.norm_deviation() < 1e-10


def test_norm_preserved_everywhere():
    schedule = sps_schedule(1.0)
    traj = propagate(schedule_hamiltonian(schedule, L, DEFAULT_CLAMP),
                     QuantumState.basis(2), make_grid(1.0, 2000))
    sums = traj.populations.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-10


def test_populations_match_amplitudes():
    traj = propagate(schedule_hamiltonian(sps_schedule(1.0), R, DEFAULT_CLAMP),
                     QuantumState.basis(2), make_grid(1.0, 500))
    np.testing.assert_allclose(traj.populations, np.abs(traj.states) ** 2)


def test_scalar_only_callable_raises():
    # propagate calls the callable once on the array of 2N Gauss nodes; a
    # callable that returns the couplings at one time is rejected by shape,
    # not looped over the times
    w, q = schedule_hamiltonian(sps_schedule(1.0), L, DEFAULT_CLAMP)(np.array([0.5]))
    with pytest.raises(ValueError, match=r"shapes \(\) and \(\) for 600 times"):
        propagate(lambda t: (w[0], q[0]), QuantumState.basis(2), make_grid(1.0, 300))


def test_library_error_is_not_resampled(monkeypatch):
    # propagate samples the callable once: a ChiralPulseError it raises
    # propagates without a second call
    calls = []
    original = invariants._checked_pulses

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(invariants, "_checked_pulses", counting)
    ham = schedule_hamiltonian(sps_schedule(1.0), L, 1.0)
    with pytest.raises(ClampViolation):
        propagate(ham, QuantumState.basis(2), make_grid(1.0, DEFAULT_STEPS))
    assert len(calls) == 1


def _amplitudes(bound):
    # eigvalsh squares off-diagonal entries, which underflow near 1e-154 and
    # cost the reference itself ~1e-12 accuracy; the kernel is not at fault
    return st.floats(-bound, bound).filter(lambda x: x == 0.0 or abs(x) > 1e-100)


def _exponentials(w, q, taus, alphas, deltas):
    """(3,3,M,n) half-step exponentials of n (w, q, tau) exponents at M error points."""
    out = np.empty((3, 3, len(alphas), len(taus)), dtype=complex)
    return _half_step_exponentials(*(np.asarray(x, dtype=float)
                                     for x in (w, q, taus, alphas, deltas)), out)


@settings(max_examples=300, deadline=None)
@given(omega=_amplitudes(200.0), omega_q=_amplitudes(200.0), alpha=st.floats(-0.5, 0.5),
       delta=_amplitudes(5.0), sign=st.sampled_from((-1, 1)), dt=st.floats(0.0, 0.5))
def test_step_propagator_closed_form(omega, omega_q, alpha, delta, sign, dt):
    h = perturbed_hamiltonian([omega], [omega_q], sign, alpha, delta)
    w, q, d = h[0, 0, 1].real, h[0, 0, 2].imag, h[0, 2, 2].real
    r = math.hypot(math.sqrt(2.0) * w, q, d)
    np.testing.assert_allclose(np.linalg.eigvalsh(h)[0], [-r, 0.0, r],
                               rtol=0, atol=1e-13 * r)
    # the kernel takes the handedness sign in q: H_13 = i q
    u = _exponentials([omega], [sign * omega_q], [dt], [alpha], [delta])[:, :, 0, 0]
    np.testing.assert_allclose(u, expm(-1j * h[0] * dt), rtol=0, atol=1e-13)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(3), rtol=0, atol=1e-14)


def test_step_propagator_of_zero_pulses_is_identity():
    u = _exponentials(np.zeros(3), np.zeros(3), [0.1, 0.5, 2.0], [0.2], [0.0])
    np.testing.assert_array_equal(np.moveaxis(u[:, :, 0], -1, 0),
                                  np.broadcast_to(np.eye(3), (3, 3, 3)))


@pytest.mark.parametrize("length", [1, 2, 3, 7, 1001])
def test_ordered_product_matches_sequential_product(length):
    rng = np.random.default_rng(length)
    alphas, deltas = [0.1, -0.2, 0.0], rng.uniform(-1, 1, 3)
    u = _exponentials(rng.uniform(-5, 5, length), rng.uniform(-5, 5, length),
                      rng.uniform(0.0, 0.2, length), alphas, deltas)
    # the last chunk of a batch is a prefix of the chunk buffers: a product
    # over such views must equal the one over whole buffers
    big = np.empty((3, 3, 5, length), dtype=complex)
    big[:, :, :3] = u
    for factors, work in ((u, _tree_workspace(3, length)),
                          (big[:, :, :3], tuple(b[:, :, :3] for b in _tree_workspace(5, length)))):
        total = _tree_product(factors, work)
        for m in range(3):
            sequential = reduce(lambda acc, k: u[:, :, m, k] @ acc, range(length),
                                np.eye(3, dtype=complex))
            np.testing.assert_allclose(total[:, :, m], sequential, rtol=0, atol=1e-13)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_propagate_states_match_stepwise_matvec(level):
    # the state recurrence against one numpy mat-vec per CF4 step, with the
    # half-step exponentials of the batched fidelity kernel
    schedule = invariants.ansatz_schedule(1.1, 1.5)
    grid = make_grid(1.5, 137)
    clamp = DEFAULT_CLAMP / 1.5
    w, q, taus = _cf4_exponents(schedule_hamiltonian(schedule, R, clamp), grid)
    u = _exponentials(w, q, taus, [0.0], [0.0])
    halves = np.moveaxis(u[:, :, 0], -1, 0)
    state = QuantumState.basis(level).amplitudes
    expected = [state]
    for first, second in zip(halves[0::2], halves[1::2]):
        state = second @ (first @ state)
        expected.append(state)
    traj = propagate(schedule_hamiltonian(schedule, R, clamp), QuantumState.basis(level), grid)
    np.testing.assert_allclose(traj.states, expected, rtol=0, atol=1e-14)


def test_fourth_order_convergence_on_smooth_schedule():
    # CF4 is fourth order: halving the step divides the final-state error by 16
    from chiralpulse import ansatz_schedule
    schedule = ansatz_schedule(0.9, 1.0)
    ham = schedule_hamiltonian(schedule, L, DEFAULT_CLAMP)
    ref = propagate(ham, QuantumState.basis(2), make_grid(1.0, 3200)).states[-1]
    errs = []
    for steps in (100, 200):
        fin = propagate(ham, QuantumState.basis(2), make_grid(1.0, steps)).states[-1]
        errs.append(np.linalg.norm(fin - ref))
    ratio = errs[0] / errs[1]
    assert 14.0 < ratio < 18.0, f"halving the step gave error ratio {ratio}"


def test_overflowing_exponent_raises():
    # finite couplings whose r^2 = 2 W^2 + Q^2 overflows: the closed form
    # gives NaN propagators, which the post-check names
    with pytest.raises(NonFiniteHamiltonian, match="t=0.05 .*too large to exponentiate"):
        propagate(lambda t: (np.full(len(t), 1e200), np.zeros(len(t))),
                  QuantumState.basis(2), make_grid(1.0, 10))


def test_non_finite_hamiltonian_raises():
    def bad(t):
        return np.where(t > 0.5, np.inf, 1.0), np.zeros(len(t))

    with pytest.raises(NonFiniteHamiltonian):
        propagate(bad, QuantumState.basis(2), make_grid(1.0, 50))


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(0.0, 100)
    with pytest.raises(ValueError):
        make_grid(1.0, 0)
    g = make_grid(2.0, 10)
    assert g[0] == 0.0 and g[-1] == 2.0 and len(g) == 11


@pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf, -1.0])
def test_make_grid_rejects_a_non_finite_or_negative_duration(duration):
    with pytest.raises(ValueError, match="duration must be positive and finite"):
        make_grid(duration, 10)


@pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [-np.inf, 0.0, 1.0]],
                         ids=["nan", "inf", "minus_inf"])
def test_propagate_rejects_a_non_finite_grid(grid):
    # NaN fails every comparison, so a grid holding one is not "strictly
    # increasing"; it is rejected before the Hamiltonian is sampled
    with pytest.raises(ValueError, match="strictly increasing 1-D array of finite times"):
        propagate(lambda t: (np.ones(len(t)), np.zeros(len(t))), QuantumState.basis(2), grid)
