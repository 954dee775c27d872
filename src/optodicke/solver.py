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
stationary amplitude when A > omega_a, and x = (A - omega_a)(A + omega_a)/(4 g^2),
not polished further.  Against 50-digit roots (tests/test_solver.py,
TestRootPrecision) its relative error is below 1e-14, below 1e-9 next to g_c
(where omega*omega_a - g^2 cancels, so it is formed from exact products) and
below 1e-7 next to the fold (where two roots merge).
At zeta = 0 the normal branch has x = g^2/(4 omega^2) - omega_a^2/(4 g^2) above
g_c and the inverted one none; for g^2 <= 2^-60 omega*omega_a both have
x = omega*omega_b/(2 zeta^2), exact to rounding.

The turning point g_t is the cubic's double root.  It, g_c and the closure
coupling zeta_star are closed forms in model, which loads no numpy; solver
re-exports them (critical_coupling, turning_point, closure_estimate,
sp_closure) and the exceptions SolverError, NotFound and OutOfRange.

Labels follow from the shape of p (concave in x on the normal branch, decreasing
on the inverted one), never from a tolerance: N- is stable below g_c, unstable
above and marginal at g_c, N+ stable; the smaller normal root is stable if the
larger exists or g > g_c, the larger and the inverted root unstable.  The phase
(ground_phases) is NP_Nminus below g_c, SP on (g_c, g_t), NP_Nplus from g_t up;
solve_ground picks every ground state by it, ground_state at one g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import (  # the closed forms and exceptions, re-exported: see the docstring
    ModelParams,
    NotFound,
    OutOfRange,
    PhaseLabel,
    SolverError,
    SpinBranch,
    Stability,
    closure_estimate,
    critical_coupling,
    curvature,
    extremum_polynomial,  # unused here: the benchmark's tracer (bench/tracing.py) wraps
    extremum_polynomial_slope,  # both as attributes of this module
    observable_terms,
    scaled_energy,
    sp_closure,
    turning_point,
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

_THIRDS = np.array([2.0 * math.pi * k / 3.0 for k in range(3)])[:, None, None]
# The sign of q = sign*g^2 in each row block of the cubic: normal, then inverted.
_SIGNS = np.array([[float(SpinBranch.NORMAL)], [float(SpinBranch.INVERTED)]])
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
# The stability of each column of BranchPoints (g decides those of columns 0 and 1),
# and which columns are zero points.
_STABILITY = np.array([MARGINAL, STABLE, UNSTABLE, STABLE, UNSTABLE])
_ZERO_POINT = np.array([True, False, False, True, False])


class DegenerateBracket(SolverError):
    """Never raised.  Kept only because the benchmark's tracer (bench/tracing.py) reads it."""


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


def param_rows(params: ModelParams, g: np.ndarray) -> SimpleNamespace:
    """params with g replaced by an array of couplings, for the model's array forms."""
    return SimpleNamespace(omega=params.omega, omega_a=params.omega_a, omega_b=params.omega_b,
                           zeta=params.zeta, g=g)


def couplings(params: ModelParams, g, zeta=None) -> tuple[np.ndarray, np.ndarray]:
    """g and zeta (default params.zeta) as float vectors; InvalidInput unless all are finite, >= 0.

    Both are copies, so a result column built from them is not the caller's
    array.  ModelParams checks the smallest and the largest of each: they
    bound every other value, and both are NaN if any value is.  An empty axis
    passes.
    """
    g = np.array(g, dtype=float).reshape(-1)
    zeta = np.array(params.zeta if zeta is None else zeta, dtype=float).reshape(-1)
    for g_end, zeta_end in ((g.min(initial=0.0), zeta.min(initial=0.0)),
                            (g.max(initial=0.0), zeta.max(initial=0.0))):
        ModelParams(params.omega, params.omega_a, params.omega_b, float(g_end), float(zeta_end))
    return g, zeta


def _split(a):
    """a as hi + lo exactly, each with at most 26 significant bits (Veltkamp)."""
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _product_error(a, b):
    """a*b - fl(a*b) (Dekker), exact unless a or b is within 2^27 of overflow or a*b underflows."""
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return ((a_hi * b_hi - a * b) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _cubic_x(params: ModelParams, g: np.ndarray, g2: np.ndarray, at_g_c: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x of the two normal roots ascending and the inverted root, per g^2 > 0 (NaN if absent).

    A root is one of c*A^3 - b*A - q = 0 with A > omega_a; the normal rows
    (q = -g^2) and the inverted rows (q = +g^2) are solved in one pass.  The
    formula orders the roots A_0 >= A_1 >= A_2, and A_2 <= -r: the normal
    roots come from A_0 and A_1, the inverted one from A_0 (A_1 A_2 =
    g^2/(c A_0) > 0 there).  inf marks a row whose coefficients do not fit in
    doubles.  The excess A - omega_a nearest 0 comes from the excesses' root
    product (omega*omega_a + q)/c, unless another excess is within 1e-4 r of 0
    too (next to the triple root at g_c and closure); on the normal rows
    omega*omega_a - g^2 is formed from the exact products (g2 = g*g rounded),
    since it cancels next to g_c.  A normal row at g_c
    (at_g_c: g == g_c, whose square may round off omega*omega_a) has the excess
    0 exactly, the zero point, and its one root from the quadratic left.
    """
    oa = params.omega_a
    c = (params.zeta * params.zeta) / (2.0 * g2 * params.omega_b)
    b = params.omega + c * oa * oa
    r = np.sqrt(b / (3.0 * c))
    r3 = r**3
    q = _SIGNS * g2
    arg = q / (2.0 * c * r3)
    if np.isinf(r3).any():
        arg = np.where(np.isinf(r3), 1.5 * q / (b * r), arg)
    y0, y1, y2 = 2.0 * r * np.cos(np.arccos(arg) / 3.0 - _THIRDS) - oa
    a0, a1, a2 = np.abs(y0), np.abs(y1), np.abs(y2)
    near_0, near_1 = (a0 <= a1) & (a0 <= a2), (a1 < a0) & (a1 <= a2)  # ties to the lower index
    tol, excess_product = 1e-4 * r, params.omega * oa + q
    g_c2_error = _product_error(params.omega, oa)
    excess_product[0] += (g_c2_error if math.isfinite(g_c2_error) else 0.0) - _product_error(g, g)
    y0, y1 = (np.where(near_0 & (np.minimum(a1, a2) > tol), excess_product / (c * (y1 * y2)), y0),
              np.where(near_1 & (np.minimum(a2, a0) > tol), excess_product / (c * (y2 * y0)), y1))
    one = ~(np.abs(arg) <= 1.0)  # one real root: the hyperbolic formula
    y0 = np.where(one, np.copysign(2.0 * r * np.cosh(np.arccosh(np.abs(arg)) / 3.0), arg) - oa, y0)
    y1 = np.where(one, -np.inf, y1)
    # At g_c the excess 0 divides out, and the others solve c y^2 + 3 c omega_a y + 2 c omega_a^2
    # - omega = 0: one root is < -omega_a, the other > 0 exactly below closure.
    c_c = c[at_g_c]
    y0[0, at_g_c] = 2.0 * (params.omega - 2.0 * c_c * oa * oa) / (
        3.0 * c_c * oa + np.sqrt(c_c * c_c * oa * oa + 4.0 * c_c * params.omega))
    y1[0, at_g_c] = -np.inf
    y = np.concatenate([y0, y1[:1]])  # normal A_0, inverted A_0, normal A_1
    x = np.where(y > 0.0, y * (y + 2.0 * oa) / (4.0 * g2), np.nan)
    bad = ~((c > 0.0) & np.isfinite(2.0 * r)) | np.isnan(y0) | np.isnan(y1)
    x[:2][bad] = np.inf
    x[2][bad[0]] = np.nan
    normal_0, inverted, normal_1 = x
    return np.fmin(normal_0, normal_1), np.maximum(normal_0, normal_1), inverted


def _points(params: ModelParams, g: np.ndarray) -> BranchPoints:
    """The root kernel: the BranchPoints of the float vector g, in one array pass."""
    g_c = critical_coupling(params)
    x = np.zeros((g.size, 5))
    with np.errstate(all="ignore"):
        if params.zeta == 0.0:
            # products, not **: a huge omega gives inf and OutOfRange, and products scale
            # exactly by powers of two.  Next to g_c, x can round to <= 0; g^2 - g_c^2 not.
            w2, g2, g_c2 = params.omega * params.omega, g * g, params.omega * params.omega_a
            root = g2 / (4.0 * w2) - params.omega_a * params.omega_a / (4.0 * g2)
            root = np.where(root > 0.0, root, (g2 - g_c2) / (4.0 * w2) * (1.0 + g_c2 / g2))
            x[:, 1] = np.where(g > g_c, root, np.nan)
            x[:, 2] = x[:, 4] = np.nan
        else:
            g2 = g * g
            x[:, 1], x[:, 2], x[:, 4] = _cubic_x(params, g, g2, g == g_c)
            tiny = g2 <= params.omega * params.omega_a * 2.0**-60
            x[tiny, 1] = x[tiny, 4] = (np.float64(params.omega * params.omega_b)
                                       / (2.0 * params.zeta * params.zeta))
            x[tiny, 2] = np.nan
        rows = param_rows(params, g[:, None])
        gamma_bar = np.sqrt(x)
        energy = scaled_energy(rows, COLUMN_BRANCH, gamma_bar)
        curv = curvature(rows, COLUMN_BRANCH, gamma_bar)
        n_p, delta_n_a, n_b = observable_terms(rows, COLUMN_BRANCH, gamma_bar)
        absent = np.isnan(x)
        fits = (np.isfinite(energy) & np.isfinite(curv) & np.isfinite(x) & np.isfinite(n_b)
                & ((x > 0.0) | _ZERO_POINT))  # a root, not a zero point

    bad = ~(fits | absent).all(axis=1)
    if bad.any():  # the smallest g with a bad point on either branch
        raise OutOfRange(f"g={float(g[bad].min())!r}, zeta={params.zeta!r} {_OUT_OF_RANGE}")
    above = g > g_c
    stability = np.where(absent, ABSENT, _STABILITY)
    stability[:, 0] = np.where(above, UNSTABLE, np.where(g == g_c, MARGINAL, STABLE))
    stability[:, 1] = np.where(absent[:, 1], ABSENT,
                               np.where(above | ~absent[:, 2], STABLE, UNSTABLE))
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
    below, at_g_c = g < g_c, g == g_c
    if at_g_c.any():  # only then is closure_estimate needed, which may raise OutOfRange
        closure = closure_estimate(params) if zeta.any() else 0.0
        below = below | at_g_c & (zeta[:, None] <= closure)
    return np.where(below, 0, np.where(g < g_t[:, None], 1, 2))


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
