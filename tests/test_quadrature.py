import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import chiralpulse
from chiralpulse import QuadratureFailure, ansatz_schedule, q_alpha, q_delta, sps_schedule
from chiralpulse.quadrature import complex_quad


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
        phi, theta = schedule.phi_of(t), schedule.theta_of(t)
        if which == "alpha":
            envelope = (schedule.theta_dot_of(t) * np.sin(phi)
                        + 1j * schedule.phi_dot_of(t))
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


def test_cli_import_loads_no_scipy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import chiralpulse.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    package_root = str(Path(chiralpulse.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, package_root], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
