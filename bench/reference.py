"""Independent accuracy reference: adaptive DOP853 integration of the paper's H.

The program propagates with a fixed 4000-step midpoint-exponential rule; the
reference integrates the same Schrodinger equation,

    i d|psi>/dt = [(1 + alpha) H0(t) + delta * diag(-1, 0, 1)] |psi>,

with scipy's adaptive 8th-order Runge-Kutta (DOP853, rtol = atol = 1e-12),
sampling the pulses pointwise from the public `pulses_from_invariant`.  Its
own error is below 1e-12 on these problems, five orders under the gate.
Results are cached on disk, keyed by the program's source digest, so the
reference never runs inside a timed region and repeated seeds reuse it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12
ATOL = 1e-12
GATE = 1e-6     # |F - F_ref| above this fails the operation


class Reference:
    def __init__(self, cp, cache_path: Path, source_digest: str, perturb: float = 0.0):
        self.cp = cp
        self.cache_path = cache_path
        self.source_digest = source_digest
        self.perturb = perturb          # added to every reference value (smoke test only)
        self.solves = 0
        try:
            self.cache = json.loads(cache_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.cache = {}

    def populations(self, scheme: str, n, T: float, clamp: float, alpha: float,
                    delta: float, hand: str, times) -> np.ndarray:
        """|<k|psi(t)>|^2 for k = 1, 2, 3 at `times`, starting from |2>."""
        times = [min(max(float(t), 0.0), T) for t in times]
        key = hashlib.sha256(json.dumps(
            [self.source_digest, scheme, n, T, clamp, alpha, delta, hand, times, RTOL, ATOL]
        ).encode()).hexdigest()
        if key not in self.cache:
            self.cache[key] = self._solve(scheme, n, T, clamp, alpha, delta, hand, times)
        return np.asarray(self.cache[key]) + self.perturb

    def _solve(self, scheme, n, T, clamp, alpha, delta, hand, times) -> list:
        cp = self.cp
        schedule = cp.make_schedule(scheme, T, n)
        s = cp.Handedness(hand).coupling_sign
        detuning = delta * np.diag([-1.0, 0.0, 1.0])

        def rhs(t, psi):
            pulses = cp.pulses_from_invariant(schedule, np.array([t]), clamp)
            om, oq = pulses.omega[0], pulses.omega_q[0]
            h0 = np.array([[0.0, om, s * 1j * oq],
                           [om, 0.0, om],
                           [-s * 1j * oq, om, 0.0]])
            return -1j * (((1.0 + alpha) * h0 + detuning) @ psi)

        sol = solve_ivp(rhs, (0.0, T), np.array([0.0, 1.0, 0.0], dtype=complex),
                        method="DOP853", rtol=RTOL, atol=ATOL, t_eval=times)
        if sol.status != 0:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        self.solves += 1
        return (np.abs(sol.y.T) ** 2).tolist()

    def save(self) -> None:
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.cache), encoding="utf-8")
        os.replace(tmp, self.cache_path)

    def error(self, point) -> float:
        """max |observed - reference| over the point's fidelity or trajectory."""
        target = self.cp.Handedness(point.hand).target_level - 1
        if not point.trajectory:
            ref = self.populations(point.scheme, point.n, point.T, point.clamp, point.alpha,
                                   point.delta, point.hand, [point.T])
            return abs(point.observed[0] - ref[0, target])
        rows = np.asarray(point.observed)
        ref = self.populations(point.scheme, point.n, point.T, point.clamp, point.alpha,
                               point.delta, point.hand, rows[:, 0] * point.T)
        return float(np.max(np.abs(rows[:, 1:] - ref)))
