"""Dynamical invariants, inverse-engineered schedules, and pulse synthesis.

The design route runs backwards from the usual one: instead of picking pulses
and solving for the dynamics, pick a Hermitian invariant

    I(phi, theta) = [[0,            sin(phi)sin(theta), -i cos(phi)     ],
                     [sin(phi)sin(theta), 0,            sin(phi)cos(theta)],
                     [ i cos(phi),  sin(phi)cos(theta), 0               ]]

for the left-handed system (the right-handed invariant is its mirror: levels
1 and 3 swapped, which swaps sin(theta) with cos(theta) and conjugates the
imaginary entries), prescribe the trajectories phi(t), theta(t), and solve
dI/dt + (1/i)[I, H] = 0 for the pulses:

    Omega   = phi_dot / (sin(theta) - cos(theta))
    Omega_q = phi_dot * cot(phi) * (sin(theta) + cos(theta))
                                 / (sin(theta) - cos(theta))  -  theta_dot

Both handednesses obey the same constraints, so one pulse pair serves both;
only the sign of the loop coupling differs.  With the boundary conditions
phi(0) = 0, phi(T) = pi/2, theta(T) = pi/2 the zero-eigenvalue channel carries
|2> to |3> for the left system and to |1> for the right system.

The accumulated phase of the +/-1 eigenvalue channels is

    eta_plus(t) = integral_0^t phi_dot csc(phi)
                  (sin(theta) + cos(theta)) / (cos(theta) - sin(theta)) dt',

with eta_minus = -eta_plus and eta_zero = 0.

Two schedule families are provided:

* ``sps_schedule``: phi = pi*t/(2T), theta = pi/2.  Omega is constant pi/(2T)
  and Omega_q = (pi/(2T)) * cot(pi*t/(2T)) diverges at t -> 0, which is why
  synthesized pulses carry a clamp; eta_plus = -log tan(pi*t/(4T)) up to a
  constant (the t -> 0 endpoint diverges logarithmically, so the phase is
  anchored at t = T; an additive constant is physically inert because the
  phase only ever enters sensitivity integrals inside |...|^2).

* ``ansatz_schedule``: phi = pi*t/(2T) with the single-harmonic phase ansatz

      eta_plus(t) = -[n * sin(3*phi) + phi],

  whose inversion through the phase integral above fixes

      cot(theta) = (X - 1)/(X + 1),   X = sin(phi) * (3n cos(3*phi) + 1),

  taken on the branch that is continuous in t and starts at theta(0) = 3*pi/4.
  That branch has the closed form

      theta = arctan2(1, (X - 1)/(X + 1)) + (pi where X < -1, else 0):

  the principal value jumps by pi wherever X crosses -1, and X dips below -1
  on at most one arc of (0, pi/2) (for n above ~0.65), so the continuous
  branch sits pi above the principal value on that arc only.
  theta returns to pi/2 at t = T exactly, and on every sample

      sin(theta) - cos(theta) = sqrt(2) / sqrt(X^2 + 1) > 0,

  so the pulses are finite and smooth on the whole window (no clamping is
  ever active: the sin(theta)+cos(theta) zero at t=0 cancels the cot(phi)
  pole, leaving Omega_q(0) = 2*(3n+1)*phi_dot).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import Handedness, hamiltonian_stack
from .errors import ChiralPulseError, ClampViolation, SingularTheta
from .quadrature import complex_quad

DEFAULT_CLAMP = 100.0   # cap on |Omega_q| in units of 1/T
VALIDATION_SAMPLES = 2000
SINGULAR_TOL = 1e-9
CLAMP_WINDOW_FRACTION = 0.01
PULSE_HEADER = "t,omega,omega_q,gamma"


def default_clamp(duration: float) -> float:
    """Default cap on |Omega_q|, DEFAULT_CLAMP/T, in absolute angular-frequency units."""
    return DEFAULT_CLAMP / duration


# ---------------------------------------------------------------------------
# invariant matrices and eigenvectors
# ---------------------------------------------------------------------------

def invariant_matrix(handedness: Handedness, phi, theta) -> np.ndarray:
    """Invariant I(phi, theta); broadcasts over array-valued angles.

    The right-handed invariant is the left one with levels 1 and 3 swapped,
    P I P: the same values, permuted.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(phi.shape, theta.shape)
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    out = np.zeros(shape + (3, 3), dtype=complex)
    out[..., 0, 1] = out[..., 1, 0] = sp * st
    out[..., 1, 2] = out[..., 2, 1] = sp * ct
    out[..., 0, 2] = -1j * cp
    out[..., 2, 0] = 1j * cp
    return out if handedness is Handedness.LEFT else out[..., ::-1, ::-1]


def invariant_matrix_dot(handedness: Handedness, phi, theta, phi_dot, theta_dot) -> np.ndarray:
    """Entrywise time derivative of ``invariant_matrix`` along (phi(t), theta(t))."""
    phi, theta = np.asarray(phi, float), np.asarray(theta, float)
    pd, td = np.asarray(phi_dot, float), np.asarray(theta_dot, float)
    shape = np.broadcast_shapes(phi.shape, theta.shape, pd.shape, td.shape)
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    d_ss = pd * cp * st + td * sp * ct     # d/dt sin(phi) sin(theta)
    d_sc = pd * cp * ct - td * sp * st     # d/dt sin(phi) cos(theta)
    d_c = -pd * sp                         # d/dt cos(phi)
    out = np.zeros(shape + (3, 3), dtype=complex)
    out[..., 0, 1] = out[..., 1, 0] = d_ss
    out[..., 1, 2] = out[..., 2, 1] = d_sc
    out[..., 0, 2] = -1j * d_c
    out[..., 2, 0] = 1j * d_c
    return out if handedness is Handedness.LEFT else out[..., ::-1, ::-1]


def invariant_eigensystem(handedness: Handedness, phi, theta):
    """Closed-form eigenpairs of the invariant, ordered (0, +1, -1).

    Returns a tuple of (eigenvalue, eigenvector) pairs; eigenvectors broadcast
    over array-valued angles with the component axis last, are normalized, and
    are mutually orthogonal.  The right-handed eigenvectors are the left ones
    with components 1 and 3 swapped, P v.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(phi.shape, theta.shape)
    sp, cp = np.broadcast_to(np.sin(phi), shape), np.broadcast_to(np.cos(phi), shape)
    st, ct = np.broadcast_to(np.sin(theta), shape), np.broadcast_to(np.cos(theta), shape)
    r = 1.0 / np.sqrt(2.0)
    v0 = np.stack([-sp * ct, 1j * cp, sp * st], axis=-1)
    vp = r * np.stack([cp * ct + 1j * st, 1j * sp, -cp * st + 1j * ct], axis=-1)
    vm = r * np.stack([cp * ct - 1j * st, 1j * sp, -cp * st - 1j * ct], axis=-1)
    if handedness is Handedness.RIGHT:
        v0, vp, vm = v0[..., ::-1], vp[..., ::-1], vm[..., ::-1]
    return ((0.0, v0), (1.0, vp), (-1.0, vm))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InvariantSchedule:
    """Time-parameterized (phi, theta) pair with analytic derivatives.

    ``coupling_factor_of`` evaluates
    (sin(theta)+cos(theta)) / ((sin(theta)-cos(theta)) * sin(phi))
    in a numerically stable closed form; it is the single quantity from which
    both the loop pulse (Omega_q = phi_dot*cos(phi)*factor - theta_dot) and
    the phase rate (eta_plus_dot = -phi_dot*factor) derive.

    ``eta_plus_of`` is the closed-form channel phase, anchored at
    ``eta_anchor`` (0 except where the t=0 endpoint diverges).
    """

    kind: str                   # "sps" or "ansatz"
    n: Optional[float]
    duration: float
    phi_of: Callable
    phi_dot_of: Callable
    theta_of: Callable
    theta_dot_of: Callable
    coupling_factor_of: Callable
    eta_plus_of: Callable
    eta_anchor: float

    @property
    def label(self) -> str:
        if self.kind == "sps":
            return "sps"
        return f"ansatz(n={self.n:g})"

    @property
    def slug(self) -> str:
        """Filename-safe scheme tag."""
        if self.kind == "sps":
            return "sps"
        return f"ansatz{self.n:g}"

    def describe(self) -> dict:
        meta = {"kind": self.kind, "T": self.duration}
        if self.n is not None:
            meta["n"] = self.n
        return meta


def sps_schedule(duration: float) -> InvariantSchedule:
    """Linear phi ramp at fixed theta = pi/2: the simplest boundary-compatible choice."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    T = float(duration)
    rate = np.pi / (2.0 * T)

    def phi_of(t):
        return rate * np.asarray(t, dtype=float)

    def phi_dot_of(t):
        return np.full_like(np.asarray(t, dtype=float), rate)

    def theta_of(t):
        return np.full_like(np.asarray(t, dtype=float), np.pi / 2)

    def theta_dot_of(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def coupling_factor_of(t):
        with np.errstate(divide="ignore"):
            return 1.0 / np.sin(phi_of(t))

    def eta_plus_of(t):
        # antiderivative of -phi_dot*csc(phi), anchored so eta(T) = 0
        with np.errstate(divide="ignore"):
            return -np.log(np.tan(0.5 * phi_of(t)))

    return InvariantSchedule(
        kind="sps", n=None, duration=T,
        phi_of=phi_of, phi_dot_of=phi_dot_of,
        theta_of=theta_of, theta_dot_of=theta_dot_of,
        coupling_factor_of=coupling_factor_of,
        eta_plus_of=eta_plus_of, eta_anchor=T,
    )


def ansatz_schedule(n: float, duration: float) -> InvariantSchedule:
    """Single-harmonic phase-ansatz family: eta_plus = -[n sin(3 phi) + phi].

    phi ramps linearly; theta follows cot(theta) = (X-1)/(X+1) with
    X = sin(phi)(3n cos(3 phi) + 1) on the continuous branch from
    theta(0) = 3*pi/4, evaluated in closed form as
    arctan2(1, (X-1)/(X+1)) + (pi where X < -1).  theta(T) = pi/2 holds
    exactly for every n, and sin(theta) - cos(theta) = sqrt(2)/sqrt(X^2+1)
    never vanishes, so the synthesized pulses are finite on the whole window.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if not np.isfinite(n):
        raise ValueError(f"n must be finite, got {n}")
    T = float(duration)
    n = float(n)
    rate = np.pi / (2.0 * T)

    def phi_of(t):
        return rate * np.asarray(t, dtype=float)

    def phi_dot_of(t):
        return np.full_like(np.asarray(t, dtype=float), rate)

    def _x(p):
        return np.sin(p) * (3.0 * n * np.cos(3.0 * p) + 1.0)

    def _x_prime(p):
        return (np.cos(p) * (3.0 * n * np.cos(3.0 * p) + 1.0)
                - 9.0 * n * np.sin(p) * np.sin(3.0 * p))

    def theta_of(t):
        x = _x(phi_of(t))
        return np.arctan2(1.0, (x - 1.0) / (x + 1.0)) + np.where(x < -1.0, np.pi, 0.0)

    def theta_dot_of(t):
        p = phi_of(t)
        x = _x(p)
        return -rate * _x_prime(p) / (x * x + 1.0)

    def coupling_factor_of(t):
        p = phi_of(t)
        return 3.0 * n * np.cos(3.0 * p) + 1.0

    def eta_plus_of(t):
        p = phi_of(t)
        return -(n * np.sin(3.0 * p) + p)

    return InvariantSchedule(
        kind="ansatz", n=n, duration=T,
        phi_of=phi_of, phi_dot_of=phi_dot_of,
        theta_of=theta_of, theta_dot_of=theta_dot_of,
        coupling_factor_of=coupling_factor_of,
        eta_plus_of=eta_plus_of, eta_anchor=0.0,
    )


def make_schedule(kind: str, duration: float, n: float | None = None) -> InvariantSchedule:
    """Build a schedule from a text descriptor: 'sps', 'oss', 'osd', or 'ansatz' (+n)."""
    key = kind.strip().lower()
    if key == "sps":
        return sps_schedule(duration)
    if key == "oss":
        return ansatz_schedule(1.07, duration)
    if key == "osd":
        return ansatz_schedule(1.12, duration)
    if key == "ansatz":
        if n is None:
            raise ValueError("ansatz schedule requires the harmonic weight n")
        return ansatz_schedule(n, duration)
    raise ValueError(f"unknown schedule kind {kind!r}")


# ---------------------------------------------------------------------------
# pulse synthesis
# ---------------------------------------------------------------------------

def _raw_pulses(schedule: InvariantSchedule, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped (Omega, Omega_q) at `times`; Omega_q may be infinite at endpoints."""
    t = np.asarray(times, dtype=float)
    theta = schedule.theta_of(t)
    pd = schedule.phi_dot_of(t)
    omega = pd / (np.sin(theta) - np.cos(theta))
    with np.errstate(invalid="ignore", over="ignore"):
        omega_q = (pd * np.cos(schedule.phi_of(t)) * schedule.coupling_factor_of(t)
                   - schedule.theta_dot_of(t))
    return omega, omega_q


def _clamp_omega_q(omega_q: np.ndarray, times: np.ndarray, duration: float,
                   clamp: float) -> np.ndarray:
    """Cap |Omega_q| at `clamp`, allowed only inside the endpoint windows."""
    t = np.asarray(times, dtype=float)
    window = CLAMP_WINDOW_FRACTION * duration
    needs = ~np.isfinite(omega_q) | (np.abs(omega_q) > clamp)
    outside = needs & (t > window) & (t < duration - window)
    if np.any(outside):
        k = int(np.flatnonzero(outside)[0])
        raise ClampViolation(
            f"|Omega_q| = {abs(omega_q[k]):.4g} exceeds clamp {clamp:.4g} at "
            f"t = {t[k]:.6g}, outside the {CLAMP_WINDOW_FRACTION:.0%} endpoint windows"
        )
    return np.clip(np.nan_to_num(omega_q, nan=clamp, posinf=np.inf, neginf=-np.inf),
                   -clamp, clamp)


def _check_singularity(schedule: InvariantSchedule, times: np.ndarray) -> None:
    t = np.asarray(times, dtype=float)
    interior = t[t > 0]
    theta = schedule.theta_of(interior)
    gap = np.abs(np.sin(theta) - np.cos(theta))
    if np.any(gap < SINGULAR_TOL):
        k = int(np.argmin(gap))
        raise SingularTheta(
            f"sin(theta) - cos(theta) = {gap[k]:.3e} at t = {interior[k]:.6g}; "
            "the pulse constraint is singular there"
        )


@dataclass(frozen=True)
class PulseSchedule:
    """Sampled Rabi frequencies on a time grid; identical for both handednesses."""

    times: np.ndarray
    omega: np.ndarray
    omega_q: np.ndarray
    duration: float
    clamp_value: float
    gamma: float = np.pi / 2
    kind: str = ""
    n: Optional[float] = None

    def __post_init__(self):
        for name in ("omega", "omega_q"):
            vals = getattr(self, name)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{name} contains non-finite samples")
        if np.any(np.abs(self.omega_q) > self.clamp_value * (1 + 1e-15)):
            raise ValueError("omega_q exceeds the declared clamp value")

    def metadata(self) -> dict:
        meta = {"kind": self.kind or "custom", "T": self.duration,
                "grid_size": len(self.times), "clamp_value": self.clamp_value}
        if self.n is not None:
            meta["n"] = self.n
        return meta

    def to_csv(self, path, extra_metadata: dict | None = None) -> None:
        """Write `t,omega,omega_q,gamma` rows; times in units of T, frequencies in 1/T."""
        meta = self.metadata()
        if extra_metadata:
            meta.update(extra_metadata)
        buf = io.StringIO()
        for key, value in meta.items():
            buf.write(f"# {key} = {value}\n")
        buf.write(PULSE_HEADER + "\n")
        T = self.duration
        for t, om, oq in zip(self.times, self.omega, self.omega_q):
            buf.write(f"{t / T:.15g},{om * T:.15g},{oq * T:.15g},{self.gamma:.15g}\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def from_csv(cls, path) -> "PulseSchedule":
        """Read a file written by ``to_csv``.

        Raises ``ChiralPulseError`` naming what is wrong: a missing `T` or
        `clamp_value` metadata line, a missing or different column header, a
        row with the wrong number of columns, or no rows at all.
        """
        meta: dict[str, str] = {}
        header = None
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].partition("=")
                    meta[key.strip()] = value.strip()
                elif header is None:
                    header = line
                else:
                    fields = line.split(",")
                    if len(fields) != 4:
                        raise ChiralPulseError(
                            f"{path}: line {lineno} has {len(fields)} columns, "
                            f"expected 4 ({PULSE_HEADER})")
                    rows.append([float(x) for x in fields])
        missing = [key for key in ("T", "clamp_value") if key not in meta]
        if missing:
            raise ChiralPulseError(f"{path}: missing metadata {', '.join(missing)}")
        if header != PULSE_HEADER:
            raise ChiralPulseError(
                f"{path}: column header {header!r}, expected {PULSE_HEADER!r}")
        if not rows:
            raise ChiralPulseError(f"{path}: no pulse rows")
        data = np.asarray(rows, dtype=float)
        T = float(meta["T"])
        return cls(
            times=data[:, 0] * T,
            omega=data[:, 1] / T,
            omega_q=data[:, 2] / T,
            duration=T,
            clamp_value=float(meta["clamp_value"]),
            gamma=float(data[0, 3]),
            kind=meta.get("kind", ""),
            n=float(meta["n"]) if "n" in meta else None,
        )


def pulses_from_invariant(schedule: InvariantSchedule, grid: np.ndarray,
                          clamp: float | None = None) -> PulseSchedule:
    """Solve the invariant constraint for (Omega, Omega_q) on `grid`.

    |Omega_q| is capped at `clamp` (default ``default_clamp``); the cap may
    only be active within the first/last 1% of the duration, otherwise
    ``ClampViolation`` is raised.  ``SingularTheta`` is raised if theta
    touches the singular set sin(theta) = cos(theta) on (0, T].
    """
    grid = np.asarray(grid, dtype=float)
    if clamp is None:
        clamp = default_clamp(schedule.duration)
    if clamp <= 0:
        raise ValueError(f"clamp must be positive, got {clamp}")
    _check_singularity(schedule, grid)
    omega, omega_q = _raw_pulses(schedule, grid)
    omega_q = _clamp_omega_q(omega_q, grid, schedule.duration, clamp)
    return PulseSchedule(
        times=grid, omega=omega, omega_q=omega_q,
        duration=schedule.duration, clamp_value=clamp,
        kind=schedule.kind, n=schedule.n,
    )


def schedule_hamiltonian(schedule: InvariantSchedule, handedness: Handedness,
                         clamp: float | None = None) -> Callable:
    """Vectorized H(t) for ``propagate``: (N,) times -> (N,3,3) stack, pulses clamped."""
    sign = handedness.coupling_sign

    def hamiltonian_at(times):
        pulses = pulses_from_invariant(schedule, times, clamp)
        return hamiltonian_stack(pulses.omega, pulses.omega_q, sign)

    return hamiltonian_at


# ---------------------------------------------------------------------------
# channel phases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LRPhase:
    """Accumulated channel phases: eta_plus(t) by quadrature, eta_zero = 0."""

    eta_plus: Callable
    eta_zero: Callable
    anchor_time: float


def lr_phase(schedule: InvariantSchedule) -> LRPhase:
    """Evaluate the +channel phase by composite Gauss-Legendre quadrature from the anchor to t.

    The integrand is computed trigonometrically from theta_of, independently of
    the schedule's closed-form phase, so comparing the two is a meaningful
    consistency check.  Integration anchors at schedule.eta_anchor: t = 0 when
    the integrand is integrable there, t = T for the constant-theta family
    whose endpoint behaves like 1/t (the resulting additive constant is a pure
    gauge choice, invisible to any |integral|^2).
    """
    anchor = schedule.eta_anchor

    def integrand(t):
        theta = schedule.theta_of(t)
        st, ct = np.sin(theta), np.cos(theta)
        return (schedule.phi_dot_of(t) * (st + ct)
                / ((ct - st) * np.sin(schedule.phi_of(t))))

    def eta_plus(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        values = np.array([complex_quad(integrand, anchor, tk).real for tk in ts])
        return values if np.ndim(t) else float(values[0])

    def eta_zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return LRPhase(eta_plus=eta_plus, eta_zero=eta_zero, anchor_time=anchor)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    note: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        text = f"{self.name:<28s} {status}  worst={self.worst:.3e}  tol={self.tolerance:.1e}"
        return text + (f"  ({self.note})" if self.note else "")


@dataclass(frozen=True)
class ValidationReport:
    schedule: dict
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = ["schedule validation"]
        lines += [f"  {k} = {v}" for k, v in self.schedule.items()]
        lines += ["  " + c.line() for c in self.checks]
        lines.append(f"overall: {'pass' if self.all_passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def validate_schedule(schedule: InvariantSchedule,
                      clamp: float | None = None) -> ValidationReport:
    """Run boundary, singularity, derivative, and invariant-consistency checks.

    Each check samples VALIDATION_SAMPLES times.  Failures are reported, not
    raised; each check carries its worst residual.
    """
    T = schedule.duration
    if clamp is None:
        clamp = default_clamp(T)
    checks = []

    # boundary conditions
    phi0 = float(np.abs(schedule.phi_of(0.0)))
    phiT = float(np.abs(schedule.phi_of(T) - np.pi / 2))
    thetaT = float(np.abs(schedule.theta_of(T) - np.pi / 2))
    worst = max(phi0, phiT, thetaT)
    checks.append(CheckResult("boundary conditions", worst <= 1e-12, worst, 1e-12,
                              "phi(0)=0, phi(T)=pi/2, theta(T)=pi/2"))

    # theta singularity avoidance on (0, T]
    t_interior = np.linspace(0.0, T, VALIDATION_SAMPLES + 1)[1:]
    theta = schedule.theta_of(t_interior)
    gap = float(np.min(np.abs(np.sin(theta) - np.cos(theta))))
    checks.append(CheckResult("theta singularity gap", gap >= SINGULAR_TOL, gap,
                              SINGULAR_TOL, "min |sin(theta)-cos(theta)| on (0,T]"))

    # analytic derivatives vs central finite differences (relative)
    t_mid = np.linspace(0.05 * T, 0.95 * T, VALIDATION_SAMPLES)
    h = 1e-6 * T
    worst_rel = 0.0
    for f, fdot in ((schedule.phi_of, schedule.phi_dot_of),
                    (schedule.theta_of, schedule.theta_dot_of)):
        fd = (np.asarray(f(t_mid + h)) - np.asarray(f(t_mid - h))) / (2 * h)
        an = np.asarray(fdot(t_mid))
        scale = max(float(np.max(np.abs(an))), 1.0 / T)
        worst_rel = max(worst_rel, float(np.max(np.abs(fd - an))) / scale)
    checks.append(CheckResult("derivative consistency", worst_rel <= 1e-6, worst_rel,
                              1e-6, "finite difference vs analytic, relative"))

    # dynamical-invariant condition on the unclamped interior, both handednesses
    window = CLAMP_WINDOW_FRACTION * T
    t_in = np.linspace(window, T - window, VALIDATION_SAMPLES)
    omega, omega_q = _raw_pulses(schedule, t_in)
    finite = (np.isfinite(omega) & np.isfinite(omega_q)
              & (np.abs(omega_q) <= clamp))
    t_in, omega, omega_q = t_in[finite], omega[finite], omega_q[finite]
    if len(t_in) == 0:
        checks.append(CheckResult("dynamical invariant", False, np.inf, 1e-8,
                                  "no finite unclamped pulses on the interior"))
        return ValidationReport(schedule=schedule.describe(), checks=tuple(checks))
    phi, theta = schedule.phi_of(t_in), schedule.theta_of(t_in)
    pd, td = schedule.phi_dot_of(t_in), schedule.theta_dot_of(t_in)
    worst_res = 0.0
    for handedness in Handedness:
        ham = hamiltonian_stack(omega, omega_q, handedness.coupling_sign)
        inv = invariant_matrix(handedness, phi, theta)
        inv_dot = invariant_matrix_dot(handedness, phi, theta, pd, td)
        residual = inv_dot - 1j * (inv @ ham - ham @ inv)
        worst_res = max(worst_res, float(np.max(np.abs(residual))))
    checks.append(CheckResult("dynamical invariant", worst_res <= 1e-8, worst_res,
                              1e-8, "dI/dt + (1/i)[I,H] on unclamped interior"))

    return ValidationReport(schedule=schedule.describe(), checks=tuple(checks))
