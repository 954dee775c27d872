"""Stationary points, phase boundaries and ground-state selection.

Every stationary point has a closed form, evaluated by one array kernel: one
call of branch_points gives both branches at every g of an array as one
BranchPoints table, find_roots at one g.  Its columns are the N- zero point,
the two normal roots, the N+ zero point and the inverted root; COLUMN_BRANCH
gives each column's sign, -1 on the normal branch and +1 on the inverted.
With the dressed splitting A = sqrt(omega_a^2 + 4 g^2 x), x = gamma_bar^2, and
c = zeta^2/(2 g^2 omega_b), multiplying p = 0 by A gives the depressed cubic

    c*A^3 - (omega + c*omega_a^2)*A -/+ g^2 = 0

(+g^2 on the normal branch, -g^2 on the inverted one).  Its roots come from
the trigonometric (or hyperbolic) cubic formula; a root is a positive
stationary amplitude when A > omega_a, and x = (A - omega_a)(A + omega_a)/(4 g^2).
Two Newton steps on p(x) polish each root.  At zeta = 0 the normal branch has
x = g^2/(4 omega^2) - omega_a^2/(4 g^2) above g_c and the inverted one none; for
g^2 <= 2^-60 omega*omega_a both have x = omega*omega_b/(2 zeta^2), exact to rounding.

The turning point g_t is the cubic's double root.  In u = g^2 it is the one
positive root of the quartic 4(omega*u + k)^3 = (27 zeta^2/(2 omega_b)) u^4,
k = zeta^2 omega_a^2/(2 omega_b), which a change of variable turns into
(tau*t)^4 + t - 1 = 0, solved by monotone Newton steps, as is the cubic in t
that gives the closure coupling zeta_star.

Labels follow from the shape of p (concave in x on the normal branch, decreasing
on the inverted one), never from a tolerance: N- is stable below g_c, unstable
above and marginal at g_c, N+ stable; the smaller normal root is stable if the
larger exists or g > g_c, the larger and the inverted root unstable.  The phase
(ground_phases) is NP_Nminus below g_c, SP on (g_c, g_t), NP_Nplus from g_t up;
solve_ground picks every ground state by it, ground_state at one g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .model import (
    SQUARE_LIMIT,
    ModelParams,
    PhaseLabel,
    SpinBranch,
    Stability,
    curvature,
    extremum_polynomial,
    extremum_polynomial_slope,
    observable_terms,
    scaled_energy,
)

__all__ = [
    "SolverError",
    "NotFound",
    "OutOfRange",
    "BranchPoints",
    "COLUMN_BRANCH",
    "STABILITIES",
    "ABSENT",
    "critical_coupling",
    "branch_points",
    "find_roots",
    "PHASES",
    "COLUMN_PHASE",
    "param_rows",
    "couplings",
    "ground_phases",
    "solve_ground",
    "ground_state",
    "turning_point",
    "sp_closure",
    "closure_estimate",
]

_NEWTON_STEPS = 2
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
_THIRDS = np.array([2.0 * math.pi * k / 3.0 for k in range(3)])
_OUT_OF_RANGE = ("is outside the supported range, where every stationary point and its "
                 "phonon number fit in doubles "
                 "(at omega = omega_a = 1, omega_b = 10: about 1e-153 < zeta < 5e153, "
                 "with g < 1e77 at zeta = 0 and g < 1e115 at zeta = 1)")

# The branch of each column of BranchPoints, as its sign.
COLUMN_BRANCH = np.repeat([SpinBranch.NORMAL, SpinBranch.INVERTED], [3, 2])
# Ground-state labels in the order they occur along g, and the label (an index
# into PHASES) of each column of BranchPoints that can hold the ground state.
PHASES = (PhaseLabel.NP_NMINUS, PhaseLabel.SP, PhaseLabel.NP_NPLUS)
COLUMN_PHASE = np.array([0, 1, 1, 2])
# The column holding the ground state of each phase: N-, the smaller normal root, N+.
_PHASE_COLUMN = np.array([0, 1, 3])
# A point's stability as an index into STABILITIES, ABSENT where there is no point.
STABILITIES = (Stability.MARGINAL, Stability.STABLE, Stability.UNSTABLE, None)
MARGINAL, STABLE, UNSTABLE, ABSENT = range(len(STABILITIES))


class SolverError(Exception):
    """Base class for solver failures."""


class DegenerateBracket(SolverError):
    """Never raised.  Kept only because the benchmark's tracer (bench/tracing.py) reads it."""


class NotFound(SolverError):
    """The requested critical point does not exist in the search window."""


class OutOfRange(SolverError):
    """A stationary point, or the closure coupling, does not fit in doubles."""


@dataclass(frozen=True)
class BranchPoints:
    """Stationary points of both branches, row i at the i-th g of an array.

    Columns: 0 the N- zero point, 1 and 2 the normal roots ascending, 3 the
    N+ zero point, 4 the inverted root; COLUMN_BRANCH gives their signs.
    x = gamma_bar^2 and the observables n_p, delta_n_a, n_b (those of
    model.observable_terms) and energy are NaN where a point is absent.
    stability (by the module docstring's rule, which reads no curvature) is
    an index into STABILITIES, ABSENT where a point is absent.
    """

    x: np.ndarray
    n_p: np.ndarray
    delta_n_a: np.ndarray
    n_b: np.ndarray
    energy: np.ndarray
    curvature: np.ndarray
    stability: np.ndarray


def critical_coupling(params: ModelParams) -> float:
    """Boundary g_c = sqrt(omega*omega_a) between NP(N-) and SP.

    Independent of omega_b, zeta and N: the oscillator does not move the
    normal-phase boundary.
    """
    return math.sqrt(params.omega * params.omega_a)


def param_rows(params: ModelParams, g: np.ndarray) -> SimpleNamespace:
    """params with g replaced by an array of couplings, for the model's array forms."""
    return SimpleNamespace(omega=params.omega, omega_a=params.omega_a, omega_b=params.omega_b,
                           zeta=params.zeta, g=g)


def couplings(params: ModelParams, g, zeta=None) -> tuple[np.ndarray, np.ndarray]:
    """g and zeta (default params.zeta) as float vectors; ValueError unless all are finite, >= 0.

    Both are copies, so a result column built from them is not the caller's
    array.  ModelParams checks the smallest and the largest of each: they
    bound every other value, and both are NaN if any value is.  An empty axis
    passes.
    """
    g = np.array(g, dtype=float).reshape(-1)
    zeta = np.array(params.zeta if zeta is None else zeta, dtype=float).reshape(-1)
    for end in (np.min, np.max):
        replace(params, g=float(end(g, initial=0.0)), zeta=float(end(zeta, initial=0.0)))
    return g, zeta


def _cubic_x(rows: SimpleNamespace, sign: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """x of the roots of c*A^3 - b*A - q = 0 with A > omega_a (NaN if none), per g^2 > 0.

    sign is each row's branch.  inf marks a row whose
    coefficients do not fit in doubles.  The excess A - omega_a nearest 0 comes
    from the excesses' root product (omega*omega_a + q)/c (exactly 0 at g_c),
    unless another excess is within 1e-4 r of 0 too (next to the triple root
    at g_c and closure).
    """
    oa = rows.omega_a
    c = (rows.zeta * rows.zeta) / (2.0 * g2 * rows.omega_b)
    q = sign * g2
    b = rows.omega + c * oa * oa
    r = np.sqrt(b / (3.0 * c))
    arg = q / (2.0 * c * r**3)
    if np.isinf(r**3).any():
        arg = np.where(np.isinf(r**3), 1.5 * q / (b * r), arg)
    ys = 2.0 * r[:, None] * np.cos(np.arccos(arg)[:, None] / 3.0 - _THIRDS) - oa
    n = np.arange(g2.size)
    i = np.argmin(np.abs(ys), axis=1)
    y_j, y_k = ys[n, (i + 1) % 3], ys[n, (i + 2) % 3]
    apart = np.minimum(np.abs(y_j), np.abs(y_k)) > 1e-4 * r
    ys[n, i] = np.where(apart, (rows.omega * oa + q) / (c * (y_j * y_k)), ys[n, i])
    one = ~(np.abs(arg) <= 1.0)
    if one.any():
        ys[one] = -np.inf
        ys[one, 0] = np.copysign(2.0 * r * np.cosh(np.arccosh(np.abs(arg)) / 3.0), arg)[one] - oa
    x = np.where(ys > 0.0, ys * (ys + 2.0 * oa) / (4.0 * g2[:, None]), np.nan)

    # Newton steps on p(x), dp/dx = (dp/dgamma_bar)/(2 gamma_bar), on present roots only.  A root
    # stops at the first step with slope 0, a result <= 0, or a larger |p| (from a double root).
    k, j = np.nonzero(~np.isnan(x))
    at, sign = param_rows(rows, rows.g[k, 0]), sign[k]
    roots, active = x[k, j], np.ones(k.size, dtype=bool)
    gamma_bar = np.sqrt(roots)
    p = extremum_polynomial(at, sign, gamma_bar)
    for _ in range(_NEWTON_STEPS):
        dpdx = extremum_polynomial_slope(at, sign, gamma_bar) / (2.0 * gamma_bar)
        x_next = roots - p / dpdx
        p_next = extremum_polynomial(at, sign, np.sqrt(x_next))
        active &= (dpdx != 0.0) & (x_next > 0.0) & (np.abs(p_next) <= np.abs(p))
        roots, p = np.where(active, x_next, roots), np.where(active, p_next, p)
        gamma_bar = np.sqrt(roots)
    x[k, j] = roots

    x[~((c > 0.0) & np.isfinite(2.0 * r)) | np.isnan(ys).any(axis=1)] = [np.inf, np.nan, np.nan]
    return x


def _points(params: ModelParams, g: np.ndarray) -> BranchPoints:
    """The root kernel: the BranchPoints of the float vector g.

    The cubic is solved once per row (g, sign), over the normal rows and then
    the inverted ones: at most 2 roots on the normal branch (A_2 < 0), and 1
    on the inverted (A_1, A_2 < 0).
    """
    rows = param_rows(params, g[:, None])
    with np.errstate(all="ignore"):
        if params.zeta == 0.0:
            roots = np.full((2 * g.size, 3), np.nan)
            # products, not **: a huge omega gives inf and OutOfRange, and products scale
            # exactly by powers of two.  Next to g_c, x can round to <= 0; g^2 - g_c^2 not.
            w2, g2, g_c2 = params.omega * params.omega, g * g, params.omega * params.omega_a
            x = g2 / (4.0 * w2) - params.omega_a * params.omega_a / (4.0 * g2)
            x = np.where(x > 0.0, x, (g2 - g_c2) / (4.0 * w2) * (1.0 + g_c2 / g2))
            roots[:g.size, 0] = np.where(g > critical_coupling(params), x, np.nan)
        else:
            g2 = np.tile(g * g, 2)
            roots = _cubic_x(param_rows(params, np.tile(g, 2)[:, None]),
                             np.repeat(list(SpinBranch), g.size), g2)
            roots[g2 <= params.omega * params.omega_a * 2.0**-60] = [
                np.float64(params.omega * params.omega_b) / (2.0 * params.zeta * params.zeta),
                np.nan, np.nan]
        roots = np.sort(roots, axis=1)
        zero = np.zeros((g.size, 1))
        x = np.hstack([zero, roots[:g.size, :2], zero, roots[g.size:, :1]])
        gamma_bar = np.sqrt(x)
        energy = scaled_energy(rows, COLUMN_BRANCH, gamma_bar)
        curv = curvature(rows, COLUMN_BRANCH, gamma_bar)
        n_p, delta_n_a, n_b = observable_terms(rows, COLUMN_BRANCH, gamma_bar)
        fits = np.isfinite(energy) & np.isfinite(curv) & np.isfinite(x) & np.isfinite(n_b)

    present = ~np.isnan(x)
    fits[:, [1, 2, 4]] &= x[:, [1, 2, 4]] > 0.0  # a root, not a zero point
    bad = (present & ~fits).any(axis=1)
    if bad.any():  # the smallest g with a bad point on either branch
        raise OutOfRange(f"g={float(g[bad].min())!r}, zeta={params.zeta!r} {_OUT_OF_RANGE}")
    g_c = critical_coupling(params)
    stability = np.tile([MARGINAL, STABLE, UNSTABLE, STABLE, UNSTABLE], (g.size, 1))
    stability[:, 0] = np.select([g < g_c, g > g_c], [STABLE, UNSTABLE], MARGINAL)
    stability[:, 1] = np.where(present[:, 2] | (g > g_c), STABLE, UNSTABLE)
    stability[~present] = ABSENT
    return BranchPoints(x, n_p, delta_n_a, n_b, energy, curv, stability)


def branch_points(params: ModelParams, g) -> BranchPoints:
    """Every stationary point of both branches at each coupling of the array g.

    One call of the root kernel (see the module docstring); params fixes
    omega, omega_a, omega_b and zeta, and params.g is ignored.  Raises
    OutOfRange where a point, its energy, curvature or phonon number does not
    fit in doubles.
    """
    return _points(params, np.asarray(g, dtype=float).reshape(-1))


def find_roots(params: ModelParams) -> BranchPoints:
    """Every stationary point of both branches at params.g: branch_points at [params.g]."""
    return branch_points(params, [params.g])


def ground_phases(params: ModelParams, g: np.ndarray, zeta: np.ndarray,
                  g_t: np.ndarray) -> np.ndarray:
    """The ground state's phase, an index into PHASES, at each zeta row and g.

    g and zeta are float vectors, g_t holds the fold of each zeta row: inf at
    zeta = 0 and g_c where turning_point raises NotFound.  The phase is
    NP_Nminus below g_c, SP on (g_c, g_t) and NP_Nplus from g_t up.  At g ==
    g_c it is NP_Nminus iff zeta <= closure_estimate, the sign of the energy's
    quartic coefficient omega^2/omega_a - zeta^2/omega_b.  Shape (zeta.size,
    g.size); params.g and params.zeta are ignored.
    """
    g_c = critical_coupling(params)
    index = np.where(g < g_t[:, None], 1, 2)
    index[:, g < g_c] = 0
    at_g_c = g == g_c
    if at_g_c.any():
        closure = closure_estimate(params) if zeta.any() else 0.0
        index[np.ix_(zeta <= closure, at_g_c)] = 0
    return index


def solve_ground(params: ModelParams, g) -> tuple[np.ndarray, BranchPoints]:
    """The ground state's column at each coupling of g, and the points of branch_points.

    The column of the phase ground_phases gives (COLUMN_PHASE labels it back):
    0 (N-), 1 (the smaller normal root) or 3 (N+), and 3 where that root is
    absent, which it is only within rounding of g_t.  params.g is ignored.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    pts = branch_points(params, g)
    try:
        g_t = turning_point(params)
    except NotFound:  # no fold at zeta = 0, or a closed window
        g_t = math.inf if params.zeta == 0.0 else critical_coupling(params)
    column = _PHASE_COLUMN[ground_phases(params, g, np.array([params.zeta]), np.array([g_t]))[0]]
    column[np.isnan(pts.x[np.arange(g.size), column])] = 3
    return column, pts


def ground_state(params: ModelParams) -> tuple[PhaseLabel, float, float, float, float]:
    """The ground state at params.g: solve_ground at one g.

    Returns (phase, n_p, delta_n_a, n_b, energy), the sweep's ground columns at params.g.
    """
    column, pts = solve_ground(params, [params.g])
    k = int(column[0])
    return (PHASES[COLUMN_PHASE[k]],
            *(float(v[0, k]) for v in (pts.n_p, pts.delta_n_a, pts.n_b, pts.energy)))


def _newton_down(step) -> float:
    """The root below t = 1 of an increasing convex function; step(t) gives value and slope.

    Newton steps from 1 decrease monotonically; they stop once t no longer falls.
    """
    t = 1.0
    while True:
        value, slope = step(t)
        t_next = t - value / slope
        if not t_next < t:
            return t
        t = t_next


def turning_point(params: ModelParams, zeta: float | None = None) -> float:
    """Fold coupling g_t where the stable and unstable SP roots merge.

    u = g_t^2 is the positive root of 4(omega*u + k)^3 = (27 zeta^2/(2 omega_b)) u^4
    with k = zeta^2 omega_a^2/(2 omega_b).  With sigma = zeta/sqrt(omega_b),
    u = (omega/(1.5 t))^3 / sigma^2 turns it into (tau*t)^4 + t - 1 = 0,
    tau = (27/16)^(1/4) zeta/closure_estimate, and g_t = w*sqrt(w*omega_b)/zeta,
    w = omega/(1.5 t), exact under scaling by powers of two (w^1.5 is not).
    Nothing overflows: g_t is inf only where it exceeds every double
    (closure_estimate raises OutOfRange where omega_b*omega^2/omega_a does not
    fit in a double).  params.g is ignored; zeta defaults to params.zeta.

    Raises NotFound for zeta = 0 (the superradiant region never closes) and
    when the fold is not a superradiant window: zeta >= closure_estimate,
    g_t <= g_c, or the merged splitting A* = (g_t^4/sigma^2)^(1/3) <= omega_a.
    """
    z = params.zeta if zeta is None else zeta
    if not z > 0.0:
        raise NotFound("no turning point: the superradiant region is unbounded at zeta=0")
    estimate = closure_estimate(params)
    ratio = z / estimate if estimate > 0.0 else math.inf
    if ratio < 1.0:
        root_wb = math.sqrt(params.omega_b)
        tau = (27.0 / 16.0) ** 0.25 * ratio  # t in (0, 1]; the left side is convex for t > 0
        t = _newton_down(lambda t: ((tau * t)**4 + t - 1.0, 4.0 * tau * (tau * t)**3 + 1.0))
        w = params.omega / (1.5 * t)
        w_b = w * params.omega_b
        g_t = w * (math.sqrt(w_b) if _TINY <= w_b <= _HUGE else math.sqrt(w) * root_wb) / z
        if g_t > critical_coupling(params) and g_t * g_t > z / root_wb * params.omega_a**1.5:
            return g_t
    raise NotFound(f"no stable superradiant root above g_c at zeta={z!r}: "
                   "the superradiant window is closed")


def closure_estimate(params: ModelParams) -> float:
    """Small-amplitude estimate of the closure coupling.

    Expanding p on the normal branch to first order in gamma_bar^2 at g = g_c
    gives the coefficient 2*(omega^2/omega_a - zeta^2/omega_b); the window
    closes exactly where it changes sign, zeta = sqrt(omega_b/omega_a)*omega,
    formed so that it overflows only where the estimate itself does not fit in
    a double.  OutOfRange there, and where omega > SQUARE_LIMIT.
    """
    if params.omega <= SQUARE_LIMIT:
        estimate = math.sqrt(params.omega_b / params.omega_a) * params.omega
        if math.isfinite(estimate):
            return estimate
    raise OutOfRange(f"omega={params.omega!r}, omega_a={params.omega_a!r}, "
                     f"omega_b={params.omega_b!r} is outside the range of the closure coupling "
                     f"sqrt(omega_b/omega_a)*omega, which needs omega <= {SQUARE_LIMIT:g} and "
                     "the coupling below the largest double")


def sp_closure(params: ModelParams, width_tol: float = 1e-3) -> float:
    """Smallest zeta whose superradiant window g_t - g_c is <= width_tol.

    The window narrows as zeta grows, so g_t = G = g_c + width_tol there.  In
    turning_point's t that is t^3 - t^2 + C^4 = 0, C = (27/16)^(1/4) sqrt(omega_b)
    (omega/1.5)^(3/2) / (closure_estimate G), with its root in [2/3, 1] reached by
    Newton steps from 1; zeta_star = sqrt(omega_b) (omega/(1.5 t))^(3/2) / G.  params.g
    and params.zeta are ignored.  The closed form holds in doubles where g_c^2 = omega
    omega_a and the numerator and denominator of C are normal doubles (C is then
    (4/27)^(1/4) g_c/G to rounding) and zeta_star is positive and finite; OutOfRange
    elsewhere, and where closure_estimate overflows.
    """
    if not width_tol > 0.0:
        raise ValueError("width_tol must be > 0")
    estimate = closure_estimate(params)  # first: it bounds omega, so omega^1.5 fits
    root_wb = math.sqrt(params.omega_b)
    g_top = critical_coupling(params) + width_tol
    numerator = (27.0 / 16.0) ** 0.25 * root_wb * (params.omega / 1.5) ** 1.5
    denominator = estimate * g_top
    if all(_TINY <= x <= _HUGE for x in (params.omega * params.omega_a, numerator, denominator)):
        c4 = (numerator / denominator)**4
        t = _newton_down(lambda t: (t * t * (t - 1.0) + c4, t * (3.0 * t - 2.0)))
        star = root_wb * (params.omega / (1.5 * t)) ** 1.5 / g_top
        if star > 0.0 and math.isfinite(star):
            return star
    raise OutOfRange(f"omega={params.omega!r}, omega_a={params.omega_a!r}, "
                     f"omega_b={params.omega_b!r}, width_tol={width_tol!r} is outside the range "
                     "of the closure coupling's closed form: a term of it underflows to 0, "
                     "becomes subnormal or overflows")
