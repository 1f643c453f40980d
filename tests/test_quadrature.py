import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import chiralpulse
from chiralpulse import (QuadratureFailure, ansatz_schedule, make_schedule, q_alpha, q_delta,
                         robustness, sps_schedule)
from chiralpulse.quadrature import complex_quad
from oracles import doubling_quad


def quadpack(f, a, b):
    """Adaptive QUADPACK integral of a complex integrand, one pass per part."""
    def part(g):
        return quad(g, a, b, epsabs=1e-12, epsrel=1e-12, limit=2000)[0]
    return complex(part(lambda t: f(t).real), part(lambda t: f(t).imag))


def sech(u):
    # exp form, free of cosh overflow on [0, inf)
    return 2.0 * np.exp(-u) / (1.0 + np.exp(-2.0 * u))


def quadpack_q(schedule, which):
    """q_alpha or q_delta from the defining integrals, written out independently."""
    if schedule.kind == "sps":
        if which == "alpha":
            return abs(quadpack(lambda u: sech(u) * np.exp(1j * u), 0.0, np.inf)) ** 2
        amplitude = quadpack(lambda u: sech(u) ** 2 * np.tanh(u) * np.exp(1j * u),
                             0.0, np.inf)
        return (4.0 * schedule.duration / np.pi) ** 2 * abs(amplitude) ** 2

    def integrand(t):
        s = schedule.sample(t)
        phi, theta = s.phi, s.theta
        if which == "alpha":
            envelope = s.theta_dot * np.sin(phi) + 1j * s.phi_dot
        else:
            envelope = (np.cos(2 * theta) * np.sin(2 * phi)
                        + 2j * np.sin(2 * theta) * np.sin(phi))
        return envelope * np.exp(1j * schedule.eta_plus_of(t))

    return abs(quadpack(integrand, 0.0, schedule.duration)) ** 2


@pytest.mark.parametrize("scheme", [0.0, 1.065, 1.135, 3.0, 10.0, 30.0, "sps"])
def test_sensitivities_match_quadpack(scheme):
    schedule = sps_schedule(1.7) if scheme == "sps" else ansatz_schedule(scheme, 1.0)
    assert q_alpha(schedule) == pytest.approx(quadpack_q(schedule, "alpha"), rel=1e-11)
    assert q_delta(schedule) == pytest.approx(quadpack_q(schedule, "delta"), rel=1e-11)


def test_sech_fourier_integral_on_the_sps_cutoff():
    # Re int_0^inf sech(u) e^{iu} du = (pi/2) sech(pi/2); the sps integrals stop at u = 40
    value = complex_quad(lambda u: sech(u) * np.exp(1j * u), 0.0, 40.0)
    assert value.real == pytest.approx(0.5 * np.pi / np.cosh(0.5 * np.pi), rel=1e-13)


def test_empty_interval_is_zero_without_calling_the_integrand():
    def never(t):
        raise AssertionError("integrand called on an empty interval")
    assert complex_quad(never, 0.3, 0.3) == 0


def test_divergent_integral_raises():
    with pytest.raises(QuadratureFailure, match="did not converge"):
        complex_quad(lambda x: 1.0 / x, 0.0, 1.0)


def test_divergent_integral_message_is_the_doubling_loops():
    messages = []
    for rule in (complex_quad, doubling_quad):
        with pytest.raises(QuadratureFailure) as failure:
            rule(lambda x: 1.0 / x, 0.0, 1.0)
        messages.append(str(failure.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("quadrature on [0, 1] did not converge in 4096 panels")


def _same_bits(x: complex, y: complex) -> bool:
    return np.array(x).tobytes() == np.array(y).tobytes()


@pytest.mark.parametrize("k", [0.0, 3.0, 40.0, 400.0, 3000.0])
def test_estimates_are_the_doubling_loops(k):
    # k sets the panel count where the estimates agree: 2 up to past the
    # first call's 16 panels
    def f(x):
        return np.exp(1j * k * x) * (1.0 + x * x)
    assert _same_bits(complex_quad(f, -0.5, 1.5), doubling_quad(f, -0.5, 1.5))


def _checked_quad(calls):
    """``complex_quad`` that asserts its value is ``doubling_quad``'s, bit for bit."""
    def checked(f, a, b):
        value = complex_quad(f, a, b)
        assert _same_bits(value, doubling_quad(f, a, b))
        calls.append(value)
        return value
    return checked


@settings(max_examples=40, deadline=None)
@given(scheme=st.sampled_from(["sps", "ansatz"]), duration=st.floats(0.05, 20.0),
       n=st.floats(0.0, 3.0))
def test_q_is_the_value_of_one_call_per_doubling(scheme, duration, n):
    schedule = make_schedule(scheme, duration, n)
    calls = []
    robustness._sps_integral.cache_clear()
    with mock.patch.object(robustness, "complex_quad", _checked_quad(calls)):
        q_alpha(schedule), q_delta(schedule)
    assert len(calls) == 2


def test_first_five_panel_counts_take_one_integrand_call():
    # every q of the CLI's defaults (oss, osd, optimize's n in [0.5, 1.5])
    # converges at 16 or 32 panels: one or two calls
    for schedule in (make_schedule("oss", 1.0), make_schedule("osd", 0.7),
                     ansatz_schedule(0.5, 1.0), ansatz_schedule(1.5, 2.0)):
        for measure in ("alpha", "delta"):
            sizes = []

            def counting(f, a, b):
                return complex_quad(lambda t: sizes.append(t.size) or f(t), a, b)

            with mock.patch.object(robustness, "complex_quad", counting):
                robustness._sensitivity_amplitude(schedule, measure)
            assert sizes[0] == 16 * (1 + 2 + 4 + 8 + 16)
            assert sizes[1:] in ([], [16 * 32])


def test_sps_integrals_are_computed_once_per_process():
    robustness._sps_integral.cache_clear()
    calls = []
    with mock.patch.object(robustness, "complex_quad", _checked_quad(calls)):
        for T in (0.5, 1.0, 3.0):
            q_alpha(sps_schedule(T)), q_delta(sps_schedule(T))
    assert len(calls) == 2
    assert q_delta(sps_schedule(2.0)) == pytest.approx(4.0 * q_delta(sps_schedule(1.0)),
                                                       rel=1e-15)


def test_cli_import_loads_no_scipy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import chiralpulse.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    package_root = str(Path(chiralpulse.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, package_root], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
