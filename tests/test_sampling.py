"""One-pass schedule sampling against the per-quantity closures, bit for bit.

``InvariantSchedule.sample`` evaluates every sine, cosine and arctangent of a
schedule once.  Each quantity it returns, and everything computed from it
(the pulses, the validation report and the sensitivities), must equal what
the per-quantity closures of ``oracles.reference_schedule`` give, exactly.
"""

import numpy as np
import pytest

from chiralpulse import (make_grid, make_schedule, pulses_from_invariant, q_alpha, q_delta,
                         validate_schedule)
from chiralpulse.cli import DEFAULT_CLAMP, DEFAULT_STEPS
from chiralpulse.dynamics import gauss_nodes
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
