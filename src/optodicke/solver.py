"""Stationary points, phase boundaries and ground-state selection.

Every stationary point has a closed form.  With the dressed splitting
A = sqrt(omega_a^2 + 4 g^2 x), x = gamma_bar^2, and c = zeta^2/(2 g^2 omega_b),
multiplying p = 0 by A gives the depressed cubic

    c*A^3 - (omega + c*omega_a^2)*A -/+ g^2 = 0

(+g^2 on the normal branch, -g^2 on the inverted one).  Its roots come from
the trigonometric (or hyperbolic) cubic formula; a root is a positive
stationary amplitude when A > omega_a, and x = (A - omega_a)(A + omega_a)/(4 g^2).
Two Newton steps on p(x) polish each root.

The turning point g_t is the cubic's double root.  In u = g^2 it is the one
positive root of the quartic 4(omega*u + k)^3 = (27 zeta^2/(2 omega_b)) u^4,
k = zeta^2 omega_a^2/(2 omega_b), which a change of variable turns into
(tau*t)^4 + t - 1 = 0, solved by monotone Newton steps.  The closure
coupling zeta_star comes from bisection on the window width g_t - g_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    ModelParams,
    Observables,
    PhaseLabel,
    SpinBranch,
    Stability,
    VariationalPoint,
    classify_stability,
    curvature,
    extremum_polynomial,
    extremum_polynomial_slope,
    observables_at,
    scaled_energy,
)

__all__ = [
    "SolverConfig",
    "SolverError",
    "DegenerateBracket",
    "NotFound",
    "RootSet",
    "GroundState",
    "CriticalPoints",
    "critical_coupling",
    "zero_photon_point",
    "find_roots",
    "enumerate_stationary_points",
    "ground_state",
    "turning_point",
    "sp_closure",
    "closure_estimate",
    "critical_points",
]

_NEWTON_STEPS = 2


class SolverError(Exception):
    """Base class for solver failures."""


class DegenerateBracket(SolverError):
    """A near-double root pair could not be resolved.

    The closed-form solver never raises it; it stays exported (and mapped
    to CLI exit code 3) so that callers catching it keep working.
    """


class NotFound(SolverError):
    """The requested critical point does not exist in the search window."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver tolerances.

    tol_root    : accepted for compatibility; unused, the roots are closed form
    tol_curv    : half-width of the marginal-stability band on the curvature
    scan_points : accepted for compatibility; unused, there is no scan
    tol_gt      : tolerance on g_t; unused by turning_point, which is closed
                  form, and kept as the contract its result meets
    """

    tol_root: float = 1e-10
    tol_curv: float = 1e-9
    scan_points: int = 2000
    tol_gt: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("tol_root", "tol_curv", "tol_gt"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.scan_points < 100:
            raise ValueError("scan_points must be >= 100")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class RootSet:
    """All stationary points of one branch: positive roots plus gamma_bar=0."""

    branch: SpinBranch
    roots: tuple[VariationalPoint, ...]
    zero_point: VariationalPoint

    def __post_init__(self) -> None:
        amps = [r.amplitude for r in self.roots]
        if any(a <= 0.0 for a in amps) or amps != sorted(amps):
            raise ValueError("roots must have positive amplitude, sorted ascending")
        limit = 2 if self.branch is SpinBranch.NORMAL else 1
        if len(amps) > limit:
            raise ValueError(f"{self.branch.name} branch admits at most {limit} positive roots")

    @property
    def stable_roots(self) -> tuple[VariationalPoint, ...]:
        return tuple(r for r in self.roots if r.stability is Stability.STABLE)


@dataclass(frozen=True)
class GroundState:
    """Lowest local minimum of the scaled energy over both branches."""

    phase: PhaseLabel
    point: VariationalPoint
    observables: Observables


@dataclass(frozen=True)
class CriticalPoints:
    """Phase boundaries for one (omega, omega_a, omega_b) triple.

    g_t is None when absent (zeta = 0, or zeta at/beyond closure).
    """

    g_c: float
    g_t: float | None
    zeta_star: float


def critical_coupling(params: ModelParams) -> float:
    """Boundary g_c = sqrt(omega*omega_a) between NP(N-) and SP.

    Independent of omega_b, zeta and N: the oscillator does not move the
    normal-phase boundary.
    """
    return math.sqrt(params.omega * params.omega_a)


def _point_at(params: ModelParams, branch: SpinBranch, gamma_bar: float,
              config: SolverConfig) -> VariationalPoint:
    curv = float(curvature(params, branch, gamma_bar))
    return VariationalPoint(
        amplitude=gamma_bar,
        branch=branch,
        energy=float(scaled_energy(params, branch, gamma_bar)),
        curvature=curv,
        stability=classify_stability(curv, config.tol_curv),
    )


def zero_photon_point(params: ModelParams, branch: SpinBranch,
                      config: SolverConfig | None = None) -> VariationalPoint:
    """The gamma_bar = 0 stationary point of a branch.

    Curvature 2*(omega -/+ g^2/omega_a): the normal point N- is stable only
    below g_c, the inverted point N+ is stable for every g.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    return _point_at(params, branch, 0.0, cfg)


def _cubic_roots(c: float, b: float, q: float) -> list[float]:
    """Real roots of c*A^3 - b*A - q = 0 (c, b > 0), in descending order."""
    r = math.sqrt(b / (3.0 * c))
    arg = q / (2.0 * c * r**3)
    if abs(arg) <= 1.0:
        theta = math.acos(arg) / 3.0
        return [2.0 * r * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    return [math.copysign(2.0 * r * math.cosh(math.acosh(abs(arg)) / 3.0), arg)]


def _splitting_excess(params: ModelParams, branch: SpinBranch) -> list[float]:
    """A - omega_a for every real root A of the branch's cubic (g > 0).

    A - omega_a suffers cancellation when A is close to omega_a (near g_c,
    and at small g).  The excess roots y solve a cubic whose root product is
    (omega*omega_a -/+ g^2)/c, so the smallest one is taken from the other
    two (unless one of them is 0 too: the triple root at g_c and closure);
    it is exactly 0 when g^2 == omega*omega_a.
    """
    g2, oa = params.g**2, params.omega_a
    c = params.zeta**2 / (2.0 * g2 * params.omega_b)
    q = branch.sign * g2
    ys = [a - oa for a in _cubic_roots(c, params.omega + c * oa * oa, q)]
    if len(ys) == 3:
        i = min(range(3), key=lambda j: abs(ys[j]))
        rest = math.prod(ys[:i] + ys[i + 1:])
        if rest != 0.0:
            ys[i] = (params.omega * oa + q) / (c * rest)
    return ys


def _newton_polish(params: ModelParams, branch: SpinBranch, x: float) -> float:
    """Newton steps on p(x), with dp/dx = (dp/dgamma_bar) / (2 gamma_bar)."""
    for _ in range(_NEWTON_STEPS):
        gamma_bar = math.sqrt(x)
        dpdx = float(extremum_polynomial_slope(params, branch, gamma_bar)) / (2.0 * gamma_bar)
        if dpdx == 0.0:
            break
        x_next = x - float(extremum_polynomial(params, branch, gamma_bar)) / dpdx
        if not x_next > 0.0:
            break
        x = x_next
    return x


def find_roots(params: ModelParams, branch: SpinBranch,
               config: SolverConfig | None = None) -> RootSet:
    """Locate and classify every positive stationary amplitude of a branch.

    With zeta = 0 the normal branch has the closed-form root
    gamma_bar^2 = g^2/(4 omega^2) - omega_a^2/(4 g^2) above g_c and the
    inverted branch none.  With zeta > 0 and g = 0 both branches have the
    root gamma_bar^2 = omega*omega_b/(2 zeta^2).  Otherwise the roots are
    those of the depressed cubic in A with A > omega_a (see the module
    docstring), each polished by Newton steps on p.  Never raises
    DegenerateBracket.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    zero = zero_photon_point(params, branch, cfg)

    xs: list[float] = []
    if params.zeta == 0.0:
        if branch is SpinBranch.NORMAL and params.g > critical_coupling(params):
            xs.append(params.g**2 / (4.0 * params.omega**2)
                      - params.omega_a**2 / (4.0 * params.g**2))
    elif params.g == 0.0:
        xs.append(params.omega * params.omega_b / (2.0 * params.zeta**2))
    else:
        four_g2 = 4.0 * params.g**2
        for y in _splitting_excess(params, branch):
            if y > 0.0:
                xs.append(_newton_polish(params, branch,
                                         y * (y + 2.0 * params.omega_a) / four_g2))

    return RootSet(
        branch=branch,
        roots=tuple(_point_at(params, branch, math.sqrt(x), cfg) for x in sorted(xs)),
        zero_point=zero,
    )


def enumerate_stationary_points(params: ModelParams,
                                config: SolverConfig | None = None
                                ) -> dict[SpinBranch, RootSet]:
    """RootSets of both branches (shared by ground_state and the sweeps)."""
    cfg = config if config is not None else DEFAULT_CONFIG
    return {branch: find_roots(params, branch, cfg) for branch in SpinBranch}


def _is_local_minimum(params: ModelParams, branch: SpinBranch, gamma_bar: float) -> bool:
    # Marginal points need a probe beyond the curvature: the energy slope is
    # 2*gamma_bar*p, so p's sign next to the point decides minimality.  At the
    # fold p <= 0 on both sides (inflection); at g = g_c the zero point stays
    # a minimum as long as p > 0 just above it.
    h = 1e-6 * max(1.0, gamma_bar)
    right = float(extremum_polynomial(params, branch, gamma_bar + h))
    if right < 0.0:
        return False
    if gamma_bar > h:
        left = float(extremum_polynomial(params, branch, gamma_bar - h))
        if left > 0.0:
            return False
    return True


def ground_state(params: ModelParams, config: SolverConfig | None = None) -> GroundState:
    """Pick the lowest local minimum over both branches and label the phase.

    Candidates are all stable stationary points, plus marginal ones that a
    one-sided slope probe confirms as minima (this keeps the energy curve
    continuous when a grid lands exactly on g_c).  Ties within 1e-12 in
    energy resolve to the smaller amplitude.  N+ is always stable, so a
    ground state always exists.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    rootsets = enumerate_stationary_points(params, cfg)
    return select_ground(params, rootsets, cfg)


def select_ground(params: ModelParams, rootsets: dict[SpinBranch, RootSet],
                  config: SolverConfig) -> GroundState:
    """Ground-state selection from already-enumerated stationary points."""
    candidates: list[VariationalPoint] = []
    for rs in rootsets.values():
        for point in (rs.zero_point, *rs.roots):
            if point.stability is Stability.STABLE:
                candidates.append(point)
            elif (point.stability is Stability.MARGINAL
                  and _is_local_minimum(params, point.branch, point.amplitude)):
                candidates.append(point)

    e_min = min(p.energy for p in candidates)
    pool = [p for p in candidates if p.energy <= e_min + 1e-12]
    point = min(pool, key=lambda p: p.amplitude)

    if point.amplitude == 0.0:
        phase = PhaseLabel.NP_NMINUS if point.branch is SpinBranch.NORMAL else PhaseLabel.NP_NPLUS
    elif point.branch is SpinBranch.NORMAL:
        phase = PhaseLabel.SP
    else:
        raise SolverError("stable nonzero root on the inverted branch should not exist")
    return GroundState(phase=phase, point=point, observables=observables_at(params, point))


def _fold_root(tau: float) -> float:
    """The root t in (0, 1] of (tau*t)^4 + t - 1 = 0 (tau >= 0).

    The left side is convex and increasing for t > 0 and positive at t = 1,
    so Newton steps from 1 decrease monotonically to the root; they stop
    once a step no longer decreases t.
    """
    t = 1.0
    while True:
        tt = tau * t
        t_next = t - (tt**4 + t - 1.0) / (4.0 * tau * tt**3 + 1.0)
        if not t_next < t:
            return t
        t = t_next


def turning_point(params: ModelParams, zeta: float | None = None,
                  config: SolverConfig | None = None) -> float:
    """Fold coupling g_t where the stable and unstable SP roots merge.

    u = g_t^2 is the positive root of 4(omega*u + k)^3 = (27 zeta^2/(2 omega_b)) u^4
    with k = zeta^2 omega_a^2/(2 omega_b).  With sigma = zeta/sqrt(omega_b),
    u = (omega/(1.5 t))^3 / sigma^2 turns it into (tau*t)^4 + t - 1 = 0,
    tau = (27/16)^(1/4) zeta/closure_estimate.  Nothing overflows: g_t is inf
    only where it exceeds every double.  params.g is ignored; zeta defaults
    to params.zeta; config is accepted for call compatibility.

    Raises NotFound for zeta = 0 (the superradiant region never closes) and
    when the fold is not a superradiant window: zeta >= closure_estimate,
    g_t <= g_c, or the merged splitting A* = (g_t^4/sigma^2)^(1/3) <= omega_a.
    """
    z = params.zeta if zeta is None else zeta
    if not z > 0.0:
        raise NotFound("no turning point: the superradiant region is unbounded at zeta=0")
    ratio = z / closure_estimate(params)
    if ratio < 1.0:
        root_wb = math.sqrt(params.omega_b)
        t = _fold_root((27.0 / 16.0) ** 0.25 * ratio)
        g_t = (params.omega / (1.5 * t)) ** 1.5 * root_wb / z
        if g_t > critical_coupling(params) and g_t * g_t > z / root_wb * params.omega_a**1.5:
            return g_t
    raise NotFound(f"no stable superradiant root above g_c at zeta={z!r}: "
                   "the superradiant window is closed")


def closure_estimate(params: ModelParams) -> float:
    """Small-amplitude estimate of the closure coupling.

    Expanding p on the normal branch to first order in gamma_bar^2 at g = g_c
    gives the coefficient 2*(omega^2/omega_a - zeta^2/omega_b); the window
    closes exactly where it changes sign, zeta = sqrt(omega_b*omega^2/omega_a).
    """
    return math.sqrt(params.omega_b * params.omega**2 / params.omega_a)


def sp_closure(params: ModelParams, config: SolverConfig | None = None,
               width_tol: float = 1e-3) -> float:
    """Smallest zeta whose superradiant window g_t - g_c is <= width_tol.

    Bisection over zeta on the closed-form width turning_point(zeta) - g_c,
    which is strictly decreasing in zeta and reaches zero at
    closure_estimate(params); the bisection stops at a zeta step of
    1e-6 * max(1, closure_estimate).  params.g and params.zeta are ignored.
    """
    if width_tol <= 0.0:
        raise ValueError("width_tol must be > 0")
    cfg = config if config is not None else DEFAULT_CONFIG
    g_c = critical_coupling(params)

    def width(z: float) -> float:
        try:
            return turning_point(params, zeta=z, config=cfg) - g_c
        except NotFound:
            return 0.0

    hi = closure_estimate(params)
    lo = hi / 2.0
    for _ in range(60):
        if width(lo) > width_tol:
            break
        lo /= 2.0
    else:
        raise SolverError("could not bracket the closure coupling from below")

    tol_z = 1e-6 * max(1.0, hi)
    while hi - lo > tol_z:
        mid = 0.5 * (lo + hi)
        if width(mid) <= width_tol:
            hi = mid
        else:
            lo = mid
    return hi


def critical_points(params: ModelParams, config: SolverConfig | None = None,
                    width_tol: float = 1e-3) -> CriticalPoints:
    """g_c, g_t (None when absent) and zeta_star for the given frequencies."""
    cfg = config if config is not None else DEFAULT_CONFIG
    try:
        g_t: float | None = turning_point(params, config=cfg)
    except NotFound:
        g_t = None
    return CriticalPoints(
        g_c=critical_coupling(params),
        g_t=g_t,
        zeta_star=sp_closure(params, cfg, width_tol=width_tol),
    )
