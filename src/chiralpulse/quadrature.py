"""Composite 16-point Gauss-Legendre quadrature, the package's one integration rule.

The integrands (q_alpha, q_delta, the channel phase) are analytic on their
intervals, where the rule converges geometrically; the panel count doubles
until two successive estimates agree to max(ABS_TOL, REL_TOL * |I|).
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure

ABS_TOL = 1e-10
REL_TOL = 1e-12
MAX_PANELS = 4096
_FIRST_CALL_PANELS = (1, 2, 4, 8, 16)    # evaluated together, in one call of the integrand
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel_nodes(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """(panels, 16) nodes of `panels` equal panels on [a, b], and each panel's half width."""
    edges = np.linspace(a, b, panels + 1)
    halves = 0.5 * (edges[1:] - edges[:-1])
    return 0.5 * (edges[:-1] + edges[1:])[:, None] + halves[:, None] * _NODES, halves


def _estimate(values: np.ndarray, halves: np.ndarray) -> complex:
    return complex(np.sum((values @ _WEIGHTS) * halves))


def _estimates(f, a: float, b: float):
    """The estimates of 1, 2, 4, ... MAX_PANELS panels, lazily.

    The q of the CLI's default schemes converge at 16 or 32 panels, so the
    nodes of _FIRST_CALL_PANELS (496 in all) go to `f` in one call, and each
    later doubling makes one call.  `f` is elementwise, so every estimate is the
    one a call per panel count gives, bit for bit.
    """
    first = [_panel_nodes(a, b, panels) for panels in _FIRST_CALL_PANELS]
    values = f(np.concatenate([nodes for nodes, _ in first]))
    start = 0
    for nodes, halves in first:
        yield _estimate(values[start:start + len(halves)], halves)
        start += len(halves)
    panels = 2 * _FIRST_CALL_PANELS[-1]
    while panels <= MAX_PANELS:
        nodes, halves = _panel_nodes(a, b, panels)
        yield _estimate(f(nodes), halves)
        panels *= 2


def complex_quad(f, a: float, b: float) -> complex:
    """Integral of `f` over [a, b]; `f` maps a (panels, 16) array of nodes to values.

    An empty interval gives exactly 0 without calling `f`.  Raises
    ``QuadratureFailure`` if the estimates still disagree at MAX_PANELS panels.
    """
    if a == b:
        return 0j
    previous = np.nan       # the first estimate never passes
    for current in _estimates(f, a, b):
        change = np.abs(current - previous)   # abs() may raise OverflowError on a NaN part
        if change <= max(ABS_TOL, REL_TOL * np.abs(current)):
            return current
        previous = current
    raise QuadratureFailure(f"quadrature on [{a:.6g}, {b:.6g}] did not converge in "
                            f"{MAX_PANELS} panels (last change {change:.3g})")
