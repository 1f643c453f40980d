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
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def complex_quad(f, a: float, b: float) -> complex:
    """Integral of `f` over [a, b]; `f` maps a (panels, 16) array of nodes to values.

    An empty interval gives exactly 0 without calling `f`.  Raises
    ``QuadratureFailure`` if the estimates still disagree at MAX_PANELS panels.
    """
    if a == b:
        return 0j
    previous, panels = np.nan, 1        # nan: the first estimate never passes
    while panels <= MAX_PANELS:
        edges = np.linspace(a, b, panels + 1)
        halves = 0.5 * (edges[1:] - edges[:-1])
        values = f(0.5 * (edges[:-1] + edges[1:])[:, None] + halves[:, None] * _NODES)
        current = complex(np.sum((values @ _WEIGHTS) * halves))
        change = np.abs(current - previous)   # abs() may raise OverflowError on a NaN part
        if change <= max(ABS_TOL, REL_TOL * np.abs(current)):
            return current
        previous, panels = current, 2 * panels
    raise QuadratureFailure(f"quadrature on [{a:.6g}, {b:.6g}] did not converge in "
                            f"{MAX_PANELS} panels (last change {change:.3g})")
