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

I and the left-handed H share the form [[0, a, -ib], [a, 0, c], [ib, c, 0]],
so the condition is three real equations, one per upper entry, and
``validate_schedule`` checks those (``_invariant_residual``) without
assembling a matrix.

Both pulses and every check read the same few values: the sines and cosines
of phi, 3*phi and theta at the sample times.  A schedule therefore exposes
one ``sample(t)``, which evaluates them once and returns phi, theta, their
derivatives, the coupling factor and sin/cos of phi together
(``ScheduleSample``).  ``pulses_from_invariant`` makes one such call per grid
and takes its singularity gap from the same sin(theta) - cos(theta) that
Omega divides by.  The checks and the integrand that read only phi and theta
ask for those alone (``sample(t, rates=False)``), computed by the same
statements, and skip the rest.

Both handednesses obey the same constraints, so one pulse pair serves both;
only the sign of the loop coupling differs.  With the boundary conditions
phi(0) = 0, phi(T) = pi/2, theta(T) = pi/2 the zero-eigenvalue channel carries
|2> to |3> for the left system and to |1> for the right system.

The accumulated phase of the +/-1 eigenvalue channels is

    eta_plus(t) = integral_0^t phi_dot csc(phi)
                  (sin(theta) + cos(theta)) / (cos(theta) - sin(theta)) dt',

with eta_minus = -eta_plus and eta_zero = 0.  Each schedule carries this
phase in closed form (``InvariantSchedule.eta_plus_of``, a callable of its
own, since only the sensitivity integrands need it); the tests check it
against a quadrature of the integral.

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

  so the pulses are finite and smooth on the whole window: the
  sin(theta)+cos(theta) zero at t=0 cancels the cot(phi) pole, leaving
  Omega_q(0) = 2*(3n+1)*phi_dot.  Finite is not bounded: |Omega_q| grows
  with n, and above n ~ 7.088 it exceeds the CLI's default clamp (100/T)
  outside the endpoint windows.  At n = 1e9 the gap sqrt(2)/sqrt(X^2 + 1)
  falls below SINGULAR_TOL, and ``SingularTheta`` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._csvrows import write_table
from .dynamics import Handedness, _checked_duration, make_grid
from .errors import ClampViolation, SingularTheta

VALIDATION_SAMPLES = 2000
SINGULAR_TOL = 1e-9
CLAMP_WINDOW_FRACTION = 0.01
PULSE_HEADER = "t,omega,omega_q,gamma"
LOOP_PHASE = np.pi / 2   # gamma: the 1-3 loop phase (i*Omega_q) that every propagator assumes


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

class ScheduleSample(NamedTuple):
    """Every quantity of a schedule at one set of times, from one trig pass.

    ``factor`` is the coupling factor
    (sin(theta)+cos(theta)) / ((sin(theta)-cos(theta)) * sin(phi)), in a
    numerically stable closed form; it is the single quantity from which both
    the loop pulse (Omega_q = phi_dot*cos(phi)*factor - theta_dot) and the
    phase rate (eta_plus_dot = -phi_dot*factor) derive.  ``sin_phi`` and
    ``cos_phi`` are sin and cos of ``phi``, for the consumers that need them.

    An angle-only sample (``sample(t, rates=False)``) holds ``phi`` and
    ``theta``, bit for bit those of the full sample, and None for
    ``phi_dot``, ``theta_dot`` and ``cos_phi``.  ``sin_phi`` and ``factor``
    are kept where theta is computed from them (the ansatz), and are None
    otherwise (sps).
    """

    phi: np.ndarray
    phi_dot: np.ndarray | None
    theta: np.ndarray
    theta_dot: np.ndarray | None
    factor: np.ndarray | None
    sin_phi: np.ndarray | None
    cos_phi: np.ndarray | None


@dataclass(frozen=True, eq=False)
class InvariantSchedule:
    """Time-parameterized (phi, theta) pair with analytic derivatives.

    ``sample(t)`` returns the ``ScheduleSample`` at the times `t` (an array
    or a scalar), evaluating each sine, cosine and arctangent once; the
    pulses, the validation checks and the sensitivity integrands all read
    their quantities from it.  A custom `sample` must also accept a second
    argument, `rates` (default True), which callers pass by keyword:
    ``sample(t, rates=False)`` is the angle-only sample that the boundary,
    singularity-gap and finite-difference checks and the q_delta integrand
    read, and may return the full one.  An ansatz schedule's angle-only
    sample must hold ``sin_phi`` too, which the q_delta integrand reads.

    ``eta_plus_of`` is the closed-form channel phase, anchored at t = 0, or
    at t = T for sps, whose t = 0 endpoint diverges.

    ``name`` is the scheme as the CLI's scan token spells it (sps, oss, osd
    or ``ansatz{n:g}``); every file name, column, summary and metadata line
    that names the scheme uses it.
    """

    name: str
    kind: str                   # "sps" or "ansatz"
    n: Optional[float]
    duration: float
    sample: Callable[..., ScheduleSample]
    eta_plus_of: Callable

    def describe(self) -> dict:
        meta = {"kind": self.kind, "T": self.duration}
        if self.n is not None:
            meta["n"] = self.n
        return meta

    def grid(self, steps: int, clamp: float) -> np.ndarray:
        """The `steps`-interval CF4 grid on [0, T] on which the schedule is propagated.

        An ansatz schedule (oss, osd, ``ansatz:n``) gets ``make_grid(T, steps)``,
        uniform.  No ansatz run is accepted with an active clamp: the |Omega_q|
        peak straddles t = 0.99 T (at the default cap, n = 7.09-7.18 exceed it on
        [0.9890, 0.9913] T), so a cap that bites also bites outside the 1%
        endpoint windows, where ``ClampViolation`` is raised.

        The clamped sps pulse leaves the cap at t_c = (2T/pi) arctan(pi/(2T clamp)),
        where cot meets it.  Its grid is 0, t_c, then steps - 1 geometric steps
        t_k = T (t_c/T)^(1 - k/(steps - 1)) up to T.  On [0, t_c] the
        Hamiltonian is constant, so that one CF4 step is exact.  After t_c the
        n-th derivative of cot grows like n!/t^(n+1), and steps proportional to
        t spread the CF4 error evenly: a graded mesh (Hairer, Norsett & Wanner,
        Solving ODEs I, II.4) that restores fourth order.  It is built in units
        of T, so grid / T depends only on `steps` and clamp*T, and grid[1] = t_c
        and grid[-1] = T exactly.  If t_c lies past the first 1% of the window,
        ``ClampViolation`` is raised, naming a time between the two.
        """
        T = self.duration
        if self.kind != "sps":
            return make_grid(T, steps)
        if steps < 2:
            raise ValueError(f"an sps grid needs steps >= 2, one on each side of the "
                             f"clamp switch, got {steps}")
        if not clamp > 0:
            raise ValueError(f"clamp must be positive, got {clamp}")
        switch = np.arctan(np.pi / (2.0 * (T * clamp))) / (0.5 * np.pi)     # t_c / T
        if not switch > 0.0:
            raise ValueError(f"clamp * T = {T * clamp:g} is too large to place the "
                             "sps clamp switch on the grid")
        if switch > CLAMP_WINDOW_FRACTION:
            # the cap holds on all of [0, t_c], where the nodes of the one step
            # there may all fall inside the window
            pulses_from_invariant(self, [0.5 * (CLAMP_WINDOW_FRACTION + switch) * T], clamp)
        units = np.empty(steps + 1)
        units[0] = 0.0
        units[1:] = switch ** (1.0 - np.arange(steps) / (steps - 1))
        units[1], units[-1] = switch, 1.0
        return units * T


def sps_schedule(duration: float) -> InvariantSchedule:
    """Linear phi ramp at fixed theta = pi/2: the simplest boundary-compatible choice."""
    T = _checked_duration(duration)
    rate = np.pi / (2.0 * T)

    def sample(t, rates=True):
        phi = rate * np.asarray(t, dtype=float)
        theta = np.full_like(phi, np.pi / 2)
        if not rates:
            return ScheduleSample(phi=phi, phi_dot=None, theta=theta, theta_dot=None,
                                  factor=None, sin_phi=None, cos_phi=None)
        sin_phi = np.sin(phi)
        with np.errstate(divide="ignore"):
            factor = 1.0 / sin_phi
        return ScheduleSample(phi=phi, phi_dot=np.full_like(phi, rate), theta=theta,
                              theta_dot=np.zeros_like(phi), factor=factor,
                              sin_phi=sin_phi, cos_phi=np.cos(phi))

    def eta_plus_of(t):
        # antiderivative of -phi_dot*csc(phi), anchored so eta(T) = 0
        with np.errstate(divide="ignore"):
            return -np.log(np.tan(0.5 * (rate * np.asarray(t, dtype=float))))

    return InvariantSchedule(name="sps", kind="sps", n=None, duration=T, sample=sample,
                             eta_plus_of=eta_plus_of)


def ansatz_schedule(n: float, duration: float) -> InvariantSchedule:
    """Single-harmonic phase-ansatz family: eta_plus = -[n sin(3 phi) + phi].

    phi ramps linearly; theta follows cot(theta) = (X-1)/(X+1) with
    X = sin(phi)(3n cos(3 phi) + 1) on the continuous branch from
    theta(0) = 3*pi/4, evaluated in closed form as
    arctan2(1, (X-1)/(X+1)) + (pi where X < -1).  theta(T) = pi/2 holds
    exactly for every n, and sin(theta) - cos(theta) = sqrt(2)/sqrt(X^2+1)
    never vanishes, so the synthesized pulses are finite on the whole window;
    |Omega_q| grows with n, though (see the module docstring).
    The coupling factor is 3n cos(3 phi) + 1, and
    theta_dot = -phi_dot X' / (X^2 + 1) with X' = dX/dphi.
    """
    T = _checked_duration(duration)
    if not np.isfinite(n):
        raise ValueError(f"n must be finite, got {n}")
    n = float(n)
    rate = np.pi / (2.0 * T)

    def sample(t, rates=True):
        phi = rate * np.asarray(t, dtype=float)
        sin_phi = np.sin(phi)
        triple = 3.0 * phi
        # a huge n overflows X^2 (or 3n); the singularity and clamp checks reject it
        with np.errstate(over="ignore", invalid="ignore"):
            factor = 3.0 * n * np.cos(triple) + 1.0
            x = sin_phi * factor
            theta = np.arctan2(1.0, (x - 1.0) / (x + 1.0)) + np.where(x < -1.0, np.pi, 0.0)
            if not rates:
                return ScheduleSample(phi=phi, phi_dot=None, theta=theta, theta_dot=None,
                                      factor=factor, sin_phi=sin_phi, cos_phi=None)
            cos_phi = np.cos(phi)
            x_prime = cos_phi * factor - 9.0 * n * sin_phi * np.sin(triple)
            theta_dot = -rate * x_prime / (x * x + 1.0)
        return ScheduleSample(phi=phi, phi_dot=np.full_like(phi, rate), theta=theta,
                              theta_dot=theta_dot, factor=factor,
                              sin_phi=sin_phi, cos_phi=cos_phi)

    def eta_plus_of(t):
        phi = rate * np.asarray(t, dtype=float)
        return -(n * np.sin(3.0 * phi) + phi)

    return InvariantSchedule(name=f"ansatz{n:g}", kind="ansatz", n=n, duration=T,
                             sample=sample, eta_plus_of=eta_plus_of)


def make_schedule(kind: str, duration: float, n: float | None = None) -> InvariantSchedule:
    """Build a schedule from a text descriptor: 'sps', 'oss', 'osd', or 'ansatz' (+n)."""
    key = kind.strip().lower()
    if key == "sps":
        return sps_schedule(duration)
    if key == "oss":
        return replace(ansatz_schedule(1.07, duration), name="oss")
    if key == "osd":
        return replace(ansatz_schedule(1.12, duration), name="osd")
    if key == "ansatz":
        if n is None:
            raise ValueError("ansatz schedule requires the harmonic weight n")
        return ansatz_schedule(n, duration)
    raise ValueError(f"unknown schedule kind {kind!r}")


# ---------------------------------------------------------------------------
# pulse synthesis
# ---------------------------------------------------------------------------

def _raw_pulses(sample: ScheduleSample,
                denominator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped (Omega, Omega_q) from a sample and its sin(theta) - cos(theta).

    Omega_q may be infinite at the endpoints.
    """
    omega = sample.phi_dot / denominator
    with np.errstate(invalid="ignore", over="ignore"):
        omega_q = sample.phi_dot * sample.cos_phi * sample.factor - sample.theta_dot
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


@dataclass(frozen=True)
class PulseSchedule:
    """Sampled Rabi frequencies on a time grid; identical for both handednesses."""

    times: np.ndarray
    omega: np.ndarray
    omega_q: np.ndarray
    duration: float
    clamp_value: float
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
        """Write `t,omega,omega_q,gamma` rows, gamma = ``LOOP_PHASE``, after the metadata.

        The metadata block is ``metadata()``, then the `extra_metadata` keys.
        Times are in units of T, frequencies in 1/T, each value the bytes of
        ``%.15g`` (``_csvrows.format_rows``), each line ending in a line feed.
        The columns are scaled as whole arrays, which round exactly as the
        per-sample scalar operations would.
        """
        T = self.duration
        values = np.column_stack([self.times / T, self.omega * T, self.omega_q * T])
        write_table(path, {**self.metadata(), **(extra_metadata or {})}, PULSE_HEADER, values,
                    f",{LOOP_PHASE:.15g}\n")


def _checked_pulses(schedule: InvariantSchedule, grid: np.ndarray,
                    clamp: float) -> tuple[np.ndarray, np.ndarray]:
    """(Omega, Omega_q) on `grid`, past the singularity and clamp checks.

    The one pulse sampling of ``pulses_from_invariant`` and of the
    ``schedule_hamiltonian`` sampler.  Omega_q leaves ``_clamp_omega_q``
    finite and within the cap, so the sampler returns the arrays as they are;
    only a directly constructed ``PulseSchedule`` is checked again.
    """
    if clamp <= 0:
        raise ValueError(f"clamp must be positive, got {clamp}")
    sample = schedule.sample(grid)
    denominator = np.sin(sample.theta) - np.cos(sample.theta)
    positive = grid > 0
    gap = np.abs(denominator[positive])
    if np.any(gap < SINGULAR_TOL):
        k = int(np.argmin(gap))
        raise SingularTheta(
            f"sin(theta) - cos(theta) = {gap[k]:.3e} at t = {grid[positive][k]:.6g}; "
            "the pulse constraint is singular there"
        )
    omega, omega_q = _raw_pulses(sample, denominator)
    return omega, _clamp_omega_q(omega_q, grid, schedule.duration, clamp)


def pulses_from_invariant(schedule: InvariantSchedule, grid: np.ndarray,
                          clamp: float) -> PulseSchedule:
    """Solve the invariant constraint for (Omega, Omega_q) on `grid`.

    |Omega_q| is capped at `clamp`, in absolute angular-frequency units; the
    cap may only be active within the first/last 1% of the duration, otherwise
    ``ClampViolation`` is raised.  ``SingularTheta`` is raised if theta
    touches the singular set sin(theta) = cos(theta) on (0, T].  The schedule
    is sampled once (``InvariantSchedule.sample``).
    """
    grid = np.asarray(grid, dtype=float)
    omega, omega_q = _checked_pulses(schedule, grid, clamp)
    return PulseSchedule(
        times=grid, omega=omega, omega_q=omega_q,
        duration=schedule.duration, clamp_value=clamp,
        kind=schedule.kind, n=schedule.n,
    )


def schedule_hamiltonian(schedule: InvariantSchedule, handedness: Handedness,
                         clamp: float) -> Callable:
    """Vectorized H(t) for ``propagate``: (N,) times -> its real couplings (W, Q).

    W = Omega and Q = ``coupling_sign`` * Omega_q, two (N,) arrays of the
    clamped pulses; they stand for the matrix H = [[0, W, iQ], [W, 0, W],
    [-iQ, W, 0]].
    """
    sign = handedness.coupling_sign

    def couplings_at(times):
        omega, omega_q = _checked_pulses(schedule, np.asarray(times, dtype=float), clamp)
        return omega, sign * omega_q

    return couplings_at


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


def _invariant_residual(omega, omega_q, sp, cp, st, ct, phi_dot, theta_dot) -> np.ndarray:
    """(3,N) real components (r1, r2, r3) of the left-handed dI/dt + (1/i)[I, H].

    `sp`, `cp`, `st` and `ct` are sin(phi), cos(phi), sin(theta) and
    cos(theta) at the samples of the pulses.

    I and H both have the form [[0, a, -ib], [a, 0, c], [ib, c, 0]], with
    (a, b, c) = (sin(phi)sin(theta), cos(phi), sin(phi)cos(theta)) for I and
    (Omega, Omega_q, Omega) for H.  The residual then has a zero diagonal,
    its lower entries mirror the upper ones, and the upper ones are r1, -i*r2
    and r3:

        r1 = a' - (b*Omega - Omega_q*c)
        r2 = b' + (a*Omega - Omega*c)
        r3 = c' - (a*Omega_q - Omega*b)

    Each off-diagonal entry of IH and HI is one product, and each diagonal
    entry of IH - HI cancels exactly, so these round as the entries of the
    complex matrix residual do, bit for bit.
    """
    a, b, c = sp * st, cp, sp * ct
    a_dot = phi_dot * cp * st + theta_dot * sp * ct
    b_dot = -phi_dot * sp
    c_dot = phi_dot * cp * ct - theta_dot * sp * st
    return np.array([a_dot - (b * omega - omega_q * c),
                     b_dot + (a * omega - omega * c),
                     c_dot - (a * omega_q - omega * b)])


def _worst(values) -> float:
    """Largest of `values`, NaN if any is NaN, so that a NaN residual fails its check.

    Python's ``max`` keeps its running value when the next one is NaN.
    """
    return float(np.max(values))


def _endpoint_checks(schedule: InvariantSchedule) -> tuple[CheckResult, CheckResult]:
    """Boundary conditions and the theta singularity gap, from one sample of [0, T]."""
    T = schedule.duration
    s = schedule.sample(np.linspace(0.0, T, VALIDATION_SAMPLES + 1), rates=False)
    worst = _worst([float(np.abs(s.phi[0])), float(np.abs(s.phi[-1] - np.pi / 2)),
                    float(np.abs(s.theta[-1] - np.pi / 2))])
    theta = s.theta[1:]
    gap = float(np.min(np.abs(np.sin(theta) - np.cos(theta))))
    return (CheckResult("boundary conditions", worst <= 1e-12, worst, 1e-12,
                        "phi(0)=0, phi(T)=pi/2, theta(T)=pi/2"),
            CheckResult("theta singularity gap", gap >= SINGULAR_TOL, gap, SINGULAR_TOL,
                        "min |sin(theta)-cos(theta)| on (0,T]"))


def _derivative_check(schedule: InvariantSchedule) -> CheckResult:
    """Analytic phi_dot and theta_dot against central finite differences, relative."""
    T = schedule.duration
    t_mid = np.linspace(0.05 * T, 0.95 * T, VALIDATION_SAMPLES)
    h = 1e-6 * T
    below = schedule.sample(t_mid - h, rates=False)
    above = schedule.sample(t_mid + h, rates=False)
    differences = ((above.phi - below.phi) / (2 * h), (above.theta - below.theta) / (2 * h))
    # with all three samples live, each call grew the heap past glibc's trim
    # threshold and faulted 80-200 pages back in (ru_minflt)
    del below, above
    mid = schedule.sample(t_mid)
    relative = []
    for fd, an in zip(differences, (mid.phi_dot, mid.theta_dot)):
        scale = max(float(np.max(np.abs(an))), 1.0 / T)
        relative.append(float(np.max(np.abs(fd - an))) / scale)
    worst = _worst(relative)
    return CheckResult("derivative consistency", worst <= 1e-6, worst, 1e-6,
                       "finite difference vs analytic, relative")


def _invariant_check(schedule: InvariantSchedule, clamp: float) -> CheckResult:
    """Left-handed T*(dI/dt + (1/i)[I, H]) on the interior, where the pulses are unclamped.

    The residual is a rate, in units of 1/T; T times it is T-free up to
    rounding, so the one tolerance means the same at every duration.
    Samples whose Omega_q is infinite or above `clamp` are skipped; a NaN one
    is kept, and fails the check.
    """
    T = schedule.duration
    window = CLAMP_WINDOW_FRACTION * T
    s = schedule.sample(np.linspace(window, T - window, VALIDATION_SAMPLES))
    sin_theta, cos_theta = np.sin(s.theta), np.cos(s.theta)
    omega, omega_q = _raw_pulses(s, sin_theta - cos_theta)
    keep = ~(np.abs(omega_q) > clamp)     # NaN compares false
    if not keep.any():
        return CheckResult("dynamical invariant", False, np.inf, 1e-8,
                           "no finite unclamped pulses on the interior")
    kept = [x[keep] for x in (omega, omega_q, s.sin_phi, s.cos_phi, sin_theta, cos_theta,
                              s.phi_dot, s.theta_dot)]
    worst = T * _worst(np.abs(_invariant_residual(*kept)))
    return CheckResult("dynamical invariant", worst <= 1e-8, worst, 1e-8,
                       "T*(dI/dt + (1/i)[I,H]) on unclamped interior")


def validate_schedule(schedule: InvariantSchedule, clamp: float) -> ValidationReport:
    """Run boundary, singularity, derivative, and invariant-consistency checks.

    Each check samples VALIDATION_SAMPLES times, one ``sample`` call per set
    of times; the boundary values are the ends of the sample of [0, T].
    That sample and the two finite-difference samples at t_mid -/+ h read only
    phi and theta, and are angle-only (``sample(t, rates=False)``); the
    sample at t_mid, whose rates the differences are compared with, and the
    interior sample of the invariant check are full.
    Failures are reported, not raised; each check carries its worst residual,
    and a NaN residual fails its check.  The derivative check is relative to
    the rates and the invariant check reports T times its residual, so both
    mean the same at every duration.  The invariant condition is checked
    for the left-handed system, from the three real components of its
    residual (``_invariant_residual``): the right-handed residual is its
    level-swap mirror, bit for bit, because the right-handed H and I are the
    left ones with levels 1 and 3 swapped.
    """
    checks = (*_endpoint_checks(schedule), _derivative_check(schedule),
              _invariant_check(schedule, clamp))
    return ValidationReport(schedule=schedule.describe(), checks=checks)
