"""Stationary points, phase boundaries and ground-state selection.

Every stationary point has a closed form, evaluated by one array kernel over
rows (g, sign), sign -1 on the normal branch and +1 on the inverted: one call of
branch_points gives both branches at every g of an array, find_roots at one g.
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
that gives the closure coupling zeta_star.  solve_ground picks the ground
state of every g of an array by one rule; ground_state is its one-point call.
"""

from __future__ import annotations

import contextlib
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
    "STABILITIES",
    "ABSENT",
    "critical_coupling",
    "branch_points",
    "find_roots",
    "PHASES",
    "COLUMN_PHASE",
    "param_rows",
    "couplings",
    "is_minimum",
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

# Ground-state labels in the order they occur along g, and the label (an index
# into PHASES) of each candidate column of solve_ground.
PHASES = (PhaseLabel.NP_NMINUS, PhaseLabel.SP, PhaseLabel.NP_NPLUS)
COLUMN_PHASE = np.array([0, 1, 1, 2])
# A point's stability as an index into STABILITIES, ABSENT where there is no point.
STABILITIES = (Stability.MARGINAL, Stability.STABLE, Stability.UNSTABLE, None)
MARGINAL, STABLE, UNSTABLE, ABSENT = range(len(STABILITIES))
# Half-width of the marginal band: a point with |curvature| <= MARGINAL_BAND is marginal.
MARGINAL_BAND = 1e-9


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
    """Stationary points of one branch, row i at the i-th g of an array.

    Column 0 is gamma_bar = 0, then the positive roots ascending (2 columns on
    the normal branch, 1 on the inverted), x = gamma_bar^2 NaN where absent.
    stability is an index into STABILITIES, ABSENT where a point is absent.
    """

    branch: SpinBranch
    x: np.ndarray
    energy: np.ndarray
    curvature: np.ndarray
    stability: np.ndarray


def critical_coupling(params: ModelParams) -> float:
    """Boundary g_c = sqrt(omega*omega_a) between NP(N-) and SP.

    Independent of omega_b, zeta and N: the oscillator does not move the
    normal-phase boundary.
    """
    return math.sqrt(params.omega * params.omega_a)


def param_rows(params: ModelParams, g: np.ndarray, zeta=None) -> SimpleNamespace:
    """params with g replaced by an array of couplings, for the model's array forms.

    zeta, if given, replaces params.zeta: a scalar, or an array that broadcasts with g.
    """
    return SimpleNamespace(omega=params.omega, omega_a=params.omega_a, omega_b=params.omega_b,
                           zeta=params.zeta if zeta is None else zeta, g=g)


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


def _cubic_x(rows: SimpleNamespace, branch: SimpleNamespace, g2: np.ndarray) -> np.ndarray:
    """x of the roots of c*A^3 - b*A - q = 0 with A > omega_a (NaN if none), per g^2 > 0.

    branch.sign is a column, each row's sign.  inf marks a row whose
    coefficients do not fit in doubles.  The excess A - omega_a nearest 0 comes
    from the excesses' root product (omega*omega_a + q)/c (exactly 0 at g_c),
    unless another excess is within 1e-4 r of 0 too (next to the triple root
    at g_c and closure).
    """
    oa = rows.omega_a
    c = (rows.zeta * rows.zeta) / (2.0 * g2 * rows.omega_b)
    q = branch.sign[:, 0] * g2
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
    at, sign = param_rows(rows, rows.g[k, 0]), SimpleNamespace(sign=branch.sign[k, 0])
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


def _points(params: ModelParams, g: np.ndarray, sign: np.ndarray) -> tuple:
    """The root kernel: x, energy, curvature and stability at each row (g[i], sign[i]).

    Columns as in BranchPoints, 2 roots per row: at most 2 on the normal branch
    (A_2 < 0), and 1 on the inverted (A_1, A_2 < 0), whose second is NaN.
    """
    rows, branch = param_rows(params, g[:, None]), SimpleNamespace(sign=sign[:, None])
    with np.errstate(all="ignore"):
        g2 = g * g
        if params.zeta == 0.0:
            x = np.full((g.size, 3), np.nan)
            # a product, not **, so that a huge omega gives inf and OutOfRange
            x[:, 0] = np.where((sign < 0.0) & (g > critical_coupling(params)), g2 / (4.0 * (
                params.omega * params.omega)) - params.omega_a**2 / (4.0 * g2), np.nan)
        else:
            x = _cubic_x(rows, branch, g2)
            x[g2 <= params.omega * params.omega_a * 2.0**-60] = [
                np.float64(params.omega * params.omega_b) / (2.0 * params.zeta * params.zeta),
                np.nan, np.nan]
        x = np.hstack([np.zeros((g.size, 1)), np.sort(x, axis=1)[:, :2]])
        x[sign > 0.0, 2] = np.nan
        gamma_bar = np.sqrt(x)
        energy = scaled_energy(rows, branch, gamma_bar)
        curv = curvature(rows, branch, gamma_bar)
        n_b = params.zeta * (gamma_bar * gamma_bar) / params.omega_b  # as observable_terms does
        fits = np.isfinite(energy) & np.isfinite(curv) & np.isfinite(x) & np.isfinite(n_b * n_b)

    present = ~np.isnan(x)
    fits[:, 1:] &= x[:, 1:] > 0.0
    bad = (present & ~fits).any(axis=1)
    if bad.any():
        raise OutOfRange(f"g={float(g[bad][0])!r}, zeta={params.zeta!r} {_OUT_OF_RANGE}")
    stability = STABLE * (curv > MARGINAL_BAND) + UNSTABLE * (curv < -MARGINAL_BAND)
    stability[~present] = ABSENT
    return x, energy, curv, stability


def branch_points(params: ModelParams, g) -> tuple[BranchPoints, BranchPoints]:
    """Every stationary point of both branches at each coupling of the array g.

    (normal, inverted), from one call of the root kernel over the normal rows
    and then the inverted ones (see the module docstring); params fixes omega,
    omega_a, omega_b and zeta, and params.g is ignored.  Raises OutOfRange
    where a point, its energy, curvature or phonon number does not fit in doubles.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    columns = _points(params, np.tile(g, 2), np.repeat([-1.0, 1.0], g.size))
    return (BranchPoints(SpinBranch.NORMAL, *(column[:g.size] for column in columns)),
            BranchPoints(SpinBranch.INVERTED, *(column[g.size:, :2] for column in columns)))


def find_roots(params: ModelParams) -> tuple[BranchPoints, BranchPoints]:
    """Every stationary point of both branches at params.g: branch_points at [params.g]."""
    return branch_points(params, [params.g])


def is_minimum(params: ModelParams, branch: SpinBranch, g: np.ndarray,
               gamma_bar: np.ndarray, zeta=None) -> np.ndarray:
    """Slope probe: whether each marginal stationary point (g[i], gamma_bar[i]) is a minimum.

    The energy slope is 2*gamma_bar*p, so p's sign next to the point decides.
    At the fold p <= 0 on both sides (an inflection); at g = g_c the zero
    point stays a minimum as long as p >= 0 just above it.  zeta, if given,
    replaces params.zeta, as in param_rows.
    """
    rows = param_rows(params, g, zeta)
    h = 1e-6 * np.maximum(1.0, gamma_bar)
    with np.errstate(all="ignore"):  # a term that overflows next to the point sets p's sign
        right = extremum_polynomial(rows, branch, gamma_bar + h)
        left = extremum_polynomial(rows, branch, gamma_bar - h)
    return ~(right < 0.0) & ~((gamma_bar > h) & (left > 0.0))


def _minima(params: ModelParams, pts: BranchPoints, g: np.ndarray) -> np.ndarray:
    """Stable points of a branch, and marginal ones that is_minimum confirms."""
    keep = pts.stability == STABLE
    i, j = np.nonzero(pts.stability == MARGINAL)
    if i.size:
        keep[i, j] = is_minimum(params, pts.branch, g[i], np.sqrt(pts.x[i, j]))
    return keep


def solve_ground(params: ModelParams, g) -> tuple[np.ndarray, BranchPoints, BranchPoints]:
    """The ground state's column at each coupling of g, and both branches' points.

    Columns: 0 the N- zero point, 1 and 2 the normal roots, 3 the N+ zero
    point (labelled by COLUMN_PHASE).  Candidates are the stable points and
    the marginal ones is_minimum confirms, but no normal root from the
    computed g_t up; the lowest energy wins, ties within 1e-12 going to the
    smaller amplitude.  A g without candidates (omega <= 5e-10) raises
    NotFound.  params.g is ignored.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    normal, inverted = branch_points(params, g)
    # p decreases along the inverted branch, so its root is never a minimum
    candidate = np.hstack([_minima(params, normal, g), _minima(params, inverted, g)[:, :1]])
    with contextlib.suppress(NotFound):  # no fold at zeta = 0 or in a closed window
        candidate[g >= turning_point(params), 1:3] = False
    none = ~candidate.any(axis=1)
    if none.any():
        raise NotFound(f"no local minimum of the energy at g={float(g[none][0])!r}, "
                       f"zeta={params.zeta!r}")
    x = np.hstack([normal.x, inverted.x[:, :1]])
    energy = np.hstack([normal.energy, inverted.energy[:, :1]])
    e_min = np.where(candidate, energy, np.inf).min(axis=1, keepdims=True)
    column = np.argmin(np.where(candidate & (energy <= e_min + 1e-12), x, np.inf), axis=1)
    return column, normal, inverted


def ground_state(params: ModelParams) -> tuple[PhaseLabel, float, float, float, float]:
    """The lowest local minimum at params.g: solve_ground at one g.

    Returns (phase, n_p, delta_n_a, n_b, energy), the sweep's ground columns at params.g.
    """
    column, *points = solve_ground(params, [params.g])
    k = int(column[0])
    pts, j = points[k // 3], k % 3  # columns 0-2 are the normal branch's, 3 is N+
    n_p, delta_n_a, n_b = observable_terms(params, pts.branch, math.sqrt(pts.x[0, j]))
    return (PHASES[COLUMN_PHASE[k]], *map(float, (n_p, delta_n_a, n_b, pts.energy[0, j])))


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
    tau = (27/16)^(1/4) zeta/closure_estimate.  Nothing overflows: g_t is inf
    only where it exceeds every double (closure_estimate raises OutOfRange
    where omega_b*omega^2/omega_a does not fit in a double).  params.g is
    ignored; zeta defaults to params.zeta.

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
        g_t = (params.omega / (1.5 * t)) ** 1.5 * root_wb / z
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
