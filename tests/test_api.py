"""The public surface: the exported names, and no library default for the CLI's settings.

The CLI owns every default, each on its flag in ``cli.build_parser``, and
passes each value down, so the library entry points take their step count,
pulse cap, sweep mode and n range from the caller.
"""

import dataclasses
import inspect

import pytest

import chiralpulse
from chiralpulse import (InvariantSchedule, exact_fidelities, fidelity_curve, fidelity_heatmap,
                         make_grid, make_schedule, optimize_n, population_trace,
                         pulses_from_invariant, schedule_hamiltonian, validate_schedule)

REQUIRED = {
    pulses_from_invariant: ("clamp",),
    schedule_hamiltonian: ("clamp",),
    validate_schedule: ("clamp",),
    make_grid: ("steps",),
    exact_fidelities: ("steps", "clamp"),
    population_trace: ("steps", "clamp"),
    fidelity_curve: ("mode", "steps", "clamp"),
    fidelity_heatmap: ("steps", "clamp"),
    optimize_n: ("n_range", "tolerance", "duration"),
}


@pytest.mark.parametrize("function", list(REQUIRED), ids=lambda f: f.__name__)
def test_cli_settings_have_no_library_default(function):
    parameters = inspect.signature(function).parameters
    defaulted = [name for name in REQUIRED[function]
                 if parameters[name].default is not inspect.Parameter.empty]
    assert defaulted == []


def test_public_names():
    assert set(chiralpulse.__all__) == {
        "__version__",
        "Handedness", "QuantumState", "Trajectory", "make_grid", "propagate",
        "ChiralPulseError", "ClampViolation", "NoInteriorMinimum", "NonFiniteHamiltonian",
        "QuadratureFailure", "SingularTheta",
        "InvariantSchedule", "PulseSchedule", "ValidationReport", "ansatz_schedule",
        "make_schedule", "pulses_from_invariant", "schedule_hamiltonian", "sps_schedule",
        "validate_schedule",
        "OptimumResult", "exact_fidelities", "optimize_n", "q_alpha", "q_delta",
        "SweepResult", "fidelity_curve", "fidelity_heatmap", "population_trace",
    }
    assert len(chiralpulse.__all__) == 30
    assert all(hasattr(chiralpulse, name) for name in chiralpulse.__all__)


def test_a_schedule_has_one_name():
    # the scheme is named by its scan token, in one field, and nowhere else
    assert list(inspect.signature(fidelity_curve).parameters) == [
        "schedule", "kind", "amplitudes", "mode", "steps", "clamp"]
    assert "name" in {field.name for field in dataclasses.fields(InvariantSchedule)}
    schedules = [make_schedule(kind, 1.0, 1.1) for kind in ("sps", "oss", "osd", "ansatz")]
    assert [s.name for s in schedules] == ["sps", "oss", "osd", "ansatz1.1"]
    for schedule in schedules:
        assert not hasattr(schedule, "label") and not hasattr(schedule, "slug")
