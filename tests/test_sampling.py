"""One-pass schedule sampling against the per-quantity closures, bit for bit.

``InvariantSchedule.sample`` evaluates every sine, cosine and arctangent of a
schedule once.  Each quantity it returns, and everything computed from it
(the pulses, the validation report and the sensitivities), must equal what
the per-quantity closures of ``oracles.reference_schedule`` give, exactly.
An angle-only sample (``sample(t, rates=False)``) must give the full
sample's phi and theta, and the callers that read only those must ask for it.
"""

import dataclasses

import numpy as np
import pytest

from chiralpulse import (make_grid, make_schedule, pulses_from_invariant, q_alpha, q_delta,
                         validate_schedule)
from chiralpulse.cli import DEFAULT_CLAMP, DEFAULT_STEPS
from chiralpulse.dynamics import gauss_nodes
from chiralpulse.invariants import VALIDATION_SAMPLES
from oracles import reference_pulses, reference_q, reference_schedule, reference_validation

CASES = [(kind, n, T) for kind, n in [("sps", None)] + [("ansatz", n) for n in
                                                       (0.8, 1.07, 1.12, 1.3)]
         for T in (0.68, 1.0, 1.525)]
IDS = [f"{kind}{'' if n is None else n}-T{T}" for kind, n, T in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def pair(request):
    kind, n, T = request.param
    return make_schedule(kind, T, n), reference_schedule(kind, T, n)


def _grids(T):
    grid = make_grid(T, 4000)
    nodes = gauss_nodes(make_grid(T, DEFAULT_STEPS))
    return {"grid4001": grid, "nodes800": nodes}


def test_every_sample_field_matches_its_closure(pair):
    schedule, ref = pair
    for name, t in _grids(schedule.duration).items():
        s = schedule.sample(t)
        phi = ref.phi_of(t)
        expected = {"phi": phi, "phi_dot": ref.phi_dot_of(t), "theta": ref.theta_of(t),
                    "theta_dot": ref.theta_dot_of(t), "factor": ref.coupling_factor_of(t),
                    "sin_phi": np.sin(phi), "cos_phi": np.cos(phi)}
        assert set(expected) == set(s._fields)
        for field, value in expected.items():
            assert np.array_equal(getattr(s, field), value, equal_nan=True), (name, field)
    for t in (0.0, schedule.duration, 0.3 * schedule.duration):
        s = schedule.sample(t)
        assert s.phi == ref.phi_of(t) and s.theta == ref.theta_of(t)
        assert s.theta_dot == ref.theta_dot_of(t)


def test_pulses_match_the_closures(pair):
    schedule, ref = pair
    T = schedule.duration
    clamps = [DEFAULT_CLAMP / T] + ([400.0 / T] if schedule.kind == "sps" else [])
    for clamp in clamps:
        for name, t in _grids(T).items():
            pulses = pulses_from_invariant(schedule, t, clamp)
            expected = reference_pulses(ref, t, clamp)
            assert np.array_equal(pulses.omega, expected.omega), (name, clamp)
            assert np.array_equal(pulses.omega_q, expected.omega_q), (name, clamp)
            if schedule.kind == "sps":
                # the clamp is active near t = 0 on the grid and on the nodes
                assert np.any(np.abs(pulses.omega_q) == clamp), (name, clamp)


def test_validation_report_matches_the_closures(pair):
    schedule, ref = pair
    for clamp in (DEFAULT_CLAMP / schedule.duration, 30.0 / schedule.duration):
        assert validate_schedule(schedule, clamp).to_text() == reference_validation(ref, clamp)


def test_sensitivities_match_the_closures(pair):
    schedule, ref = pair
    assert q_alpha(schedule) == reference_q(ref, "alpha")
    assert q_delta(schedule) == reference_q(ref, "delta")


def _validation_times(T):
    """The three time sets that validation samples angles alone on."""
    t_mid = np.linspace(0.05 * T, 0.95 * T, VALIDATION_SAMPLES)
    h = 1e-6 * T
    return {"ends": np.linspace(0.0, T, VALIDATION_SAMPLES + 1),
            "below": t_mid - h, "above": t_mid + h}


def test_angle_only_samples_match_the_full_ones(pair):
    schedule, _ = pair
    kept = ("phi", "theta") + (("sin_phi", "factor") if schedule.kind == "ansatz" else ())
    times = {**_grids(schedule.duration), **_validation_times(schedule.duration)}
    for name, t in times.items():
        full, angles = schedule.sample(t), schedule.sample(t, rates=False)
        for field in full._fields:
            if field in kept:
                assert np.array_equal(getattr(angles, field), getattr(full, field),
                                      equal_nan=True), (name, field)
            else:
                assert getattr(angles, field) is None, (name, field)


def _recording(schedule):
    """`schedule` with a sample that records the `rates` of each call."""
    calls = []

    def sample(t, rates=True):
        calls.append(rates)
        return schedule.sample(t, rates)

    return dataclasses.replace(schedule, sample=sample), calls


@pytest.mark.parametrize("kind", ["sps", "oss", "osd"])
def test_checks_that_read_only_the_angles_sample_them_alone(kind):
    # validation: the [0, T] sample and both finite-difference samples read
    # only phi and theta; the t_mid sample and the invariant check read rates
    schedule, calls = _recording(make_schedule(kind, 1.0))
    validate_schedule(schedule, DEFAULT_CLAMP)
    assert sorted(calls) == [False, False, False, True, True]
    if kind != "sps":   # the sps q are closed-form integrals, sampled nowhere
        calls.clear()
        q_delta(schedule)
        assert calls and not any(calls)
        calls.clear()
        q_alpha(schedule)
        assert calls and all(calls)
