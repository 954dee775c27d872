"""Exact diagonalization of the quantum Rabi model in a truncated Fock basis.

With no mechanical oscillator (zeta = 0) and a single atom the cavity model
reduces to the Rabi Hamiltonian

    H = omega*a^dag*a + (omega_a/2)*sigma_z + (g/2)*(a + a^dag)*sigma_x .

Every entry takes ModelParams, and ed_couplings is the whole check of its
input: the ED is that of one atom at zeta = 0.  Every entry solves in units
of omega_a (_in_units), where the kernel takes only omega and g, and scales
energies and residuals back: the kernel's absolute floors (the stop 1e-12,
max(1, ...)) are relative to omega_a, and the ED's numbers scale with its
frequencies.  H commutes with the parity operator sigma_z*(-1)^(a^dag a),
so the truncated matrix splits into two symmetric tridiagonal blocks, one
per parity sector, in units of omega_a:

    d_n = omega*n + parity*(-1)^n/2,   t_n = (g/2)*sqrt(n+1) .

One batched kernel, with one entry (_parity_rows), finds the smallest
eigenvalue of both parity blocks at every g of a grid, one block per column,
from a bracket read off the blocks' structure.  Each Sturm pass runs the
LDL^T count recurrence once over n for all columns and 15 trial points per
column, and ends early once the remaining rows are diagonally dominant.
A column first bisects [Gershgorin lower bound, min(diag)] uniformly until
its bracket is a 16th of its size (two passes on a grid up to g = 3); it
then anchors a lattice of points on that bracket, with cells narrower than
the stop of LAPACK dstebz, max(1e-12, 2*eps*max(|lo|, |hi|), pivmin), and
every later trial point is a lattice point.  A Rayleigh-quotient guess
from a few inverse-iteration steps shifted below the bracket picks the next
pass's points: -2 to 2 cells around it, 16 and 256 cells above it, and
32, 32^2, ... 32^8 cells below it, since the quotient lies above the
eigenvalue up to rounding.  A guess far above the eigenvalue still moves
the lower end to within 32 times that distance, so a column that pass
leaves wider than 16 cells gets one more guess, shifted below its new
lower end, and a ladder pass around it; a column left wider than one cell
after that bisects its lattice uniformly.  The result is the lattice cell
whose Sturm counts hold the eigenvalue: the certificate of plain
multisection, and independent of the guess and of the other columns, to
the bit.  Only the leading rows that the passes, the guess and the
residual read are built.

The eigenpair residual is checked on the guess vectors, taken on the rows
up to 16 past the dominant tail, then by inverse iteration shifted just
below the eigenvalue (positive definite, so its O(n) LDL^T solve needs no
pivoting) on the leading 2*reach rows, doubled up to n until it meets its
target; reach is the last row a Sturm pass read.  Both count the coupling
out of their rows, so they are residuals against the whole block.  Every
inverse iteration starts from (-1)^n: with S = diag((-1)^n), S T S has
offdiagonals -t_n <= 0, so by Perron-Frobenius the ground vector u of a
block, or of its leading rows, alternates in sign and overlaps the start by
sum |u_n| >= 1 (at g = 0 the start overlaps every basis vector).  No
dense matrix is formed: an oracle fully independent of the variational
closed forms it is compared against.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .model import InvalidInput, ModelParams
from .solver import SolverError, couplings

__all__ = [
    "ConvergenceFailure",
    "ed_couplings",
    "ground_energy",
    "compare_columns",
]

# Trial points per block and sweep: each sweep shrinks a bracket 16-fold.
_TRIALS = 15
_NUMERATORS = np.arange(1, _TRIALS + 1)[:, None]
_FRACTIONS = _NUMERATORS / (_TRIALS + 1)
# Relative bracket width at which a column anchors its lattice and guesses:
# two coarse passes on the 61-point detuning grids (three at 1e-3).
_COARSE = 1 / 16
# Lattice indices of a ladder pass, relative to the cell of the guess theta.
# theta is a Rayleigh quotient: at or above the eigenvalue up to rounding,
# which reached about 10 cells either way at n_max 30000, and at g >~ 10 up
# to about 2^40 cells above it, as the bracket a 16th wide leaves the shift
# of the guess too far below the eigenvalue for _GUESS_STEPS steps to converge.
# So most rungs lie below theta, reaching 32^8 = 2^40 of the at most 2^50
# cells (see _lattice_depth).
_LADDER = np.array([-32**k for k in range(8, 0, -1)] + list(range(-2, 3)) + [16, 256])[:, None]
# Guesses per kernel call.  A second one, shifted below the lower end that
# the first ladder pass left, makes 4 passes of the 10 or 11 that a 61-point
# grid up to g = 30 (n_max 300 or 1000) takes with one guess.
_GUESSES = 2
# A bracket between finite doubles is one double wide after at most about
# 2100 halvings.
_MAX_SWEEPS = math.ceil(2100 / math.log2(_TRIALS + 1))
# Relative margin of the diagonal-dominance test that ends a Sturm pass early.
_DOMINANCE = 1e-8
# Inverse-iteration shift below the eigenvalue, relative to the block norm,
# the number of solves, and the accepted residual relative to the norm.
_SHIFT = 1e-11
_INVERSE_STEPS = 3
# Inverse-iteration solves behind the guess: with 3, about one column of a
# 61-point grid missed the residual target and was solved again.
_GUESS_STEPS = 4
_RESIDUAL_TOL = 1e-10
# Rows past the dominant tail that the guess reads.  The ladder pass stops
# 10 to 12 rows past the tail, and 15 rows met the residual target on every
# column of the 61-point detuning grids at n_max 300.
_GUESS_ROWS = 16
# Absolute stop of a bracket, the abstol of LAPACK dstebz.
_TOL = 1e-12
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# Bounds of the frequencies and of g (see ed_couplings).
DOMAIN_MIN = 1e-50
DOMAIN_MAX = 1e50
# Entries of one (n, columns) array of a kernel call; compare_columns splits a
# longer grid into batches of this size, so memory does not grow with it.
_BATCH_ENTRIES = 2**18


class ConvergenceFailure(SolverError):
    """Eigenvalue bisection or inverse iteration failed; input is malformed."""


def ed_couplings(params: ModelParams, g) -> np.ndarray:
    """g as a float vector; InvalidInput unless params and every g lie in the ED's domain.

    The domain: one atom, zeta = 0, omega and omega_a in [DOMAIN_MIN,
    DOMAIN_MAX] and g in [0, DOMAIN_MAX].  There every block entry and its
    square (for n_max up to 1e5), and g^2/omega^2, fit in doubles.  g is
    checked by its smallest and largest value, through solver.couplings.
    """
    if params.zeta != 0.0:
        raise InvalidInput(f"zeta must be 0 for the Rabi ED, got {params.zeta!r}")
    if params.n_atoms != 1:
        raise InvalidInput(f"n_atoms must be 1 for the one-atom (Rabi) ED, got {params.n_atoms!r}")
    for name in ("omega", "omega_a"):
        if not DOMAIN_MIN <= getattr(params, name) <= DOMAIN_MAX:
            raise InvalidInput(f"{name} must be in [{DOMAIN_MIN:g}, {DOMAIN_MAX:g}], "
                               f"got {getattr(params, name)!r}")
    g, _ = couplings(params, g)
    if g.max(initial=0.0) > DOMAIN_MAX:
        raise InvalidInput(f"g must be in [0, {DOMAIN_MAX:g}], got {float(g.max())!r}")
    return g


def _parity_diagonals(omega: float, n: np.ndarray) -> np.ndarray:
    """Rows n of the +1 and the -1 block's diagonal, as the rows of (2, len(n))."""
    sign = 1.0 - 2.0 * (n % 2)  # (-1)^n
    return np.stack([omega * n + parity * 0.5 * sign for parity in (+1, -1)])


def _block_columns(omega: float, g: np.ndarray, n_max: int,
                   rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (rows, 2 len(g)) and offdiagonals (min(rows, n_max), 2 len(g)).

    The leading rows (at most n_max + 1) of the blocks at n_max and the
    couplings out of them.  Each column is one parity block: column i the
    +1 block of g[i] and column len(g) + i its -1 block.
    """
    n = np.arange(rows)
    offdiag = np.sqrt(n[:n_max] + 1.0)[:, None] * (0.5 * np.asarray(g, dtype=float))
    return (np.repeat(_parity_diagonals(omega, n).T, len(g), axis=1),
            np.concatenate([offdiag, offdiag], axis=1))


class _Blocks:
    """The leading k rows of a batch of blocks with n rows, one per column.

    diag holds rows 0..k-1, offdiag the couplings out of them (n - 1 if
    k = n) and off2 their squares.  grow(rows) rebuilds at least min(rows, n)
    rows, at least doubling k, through build(k); no result depends on k.
    """

    def __init__(self, diag: np.ndarray, offdiag: np.ndarray, n: int, build) -> None:
        self.diag, self.offdiag, self.off2 = diag, offdiag, offdiag * offdiag
        self.n, self.build = n, build

    def grow(self, rows: int) -> None:
        if len(self.diag) < min(rows, self.n):
            self.diag, self.offdiag = self.build(min(self.n, max(rows, 2 * len(self.diag))))
            self.off2 = self.offdiag * self.offdiag


def _radii(offdiag: np.ndarray) -> np.ndarray:
    """Gershgorin radii |t_(i-1)| + |t_i| of every column's block (n, columns)."""
    pad = np.zeros((len(offdiag) + 2, offdiag.shape[1]))
    pad[1:-1] = np.abs(offdiag)
    return pad[:-1] + pad[1:]


def _sturm_count(blocks: _Blocks, x: np.ndarray, pivmin: np.ndarray,
                 tail: int) -> tuple[np.ndarray, int]:
    """Eigenvalues strictly below each trial point (negative pivots of LDL^T).

    blocks holds n rows per column, offdiagonals >= 0, and grows as the
    pass reads on; x is the trial points (k, columns) and pivmin (columns,).
    As in LAPACK dstebz, the pivots are q_i = (d_i - t_(i-1)^2 / q_(i-1)) - x,
    and a pivot smaller than pivmin in magnitude (an exact 0 too) is
    replaced by -pivmin, so a pivot counts as negative exactly when it is
    below pivmin.  One pass over n serves every block and trial point;
    returns counts (k, columns) and the pass's reach: the row it stopped at,
    or n if it read every row.

    Rows from tail on are diagonally dominant below every trial point (see
    _dominant_tail).  Once every pivot q_i with i >= tail - 1 is at least
    t_i, each later pivot q_j exceeds t_j + pivmin, so the pass stops there
    with the counts of the full recurrence; the pivots of row i and of every
    row after it are then non-negative.
    """
    pivmin = np.broadcast_to(pivmin, x.shape).copy()  # same-shape operands: faster ufuncs
    negpiv = -pivmin
    diag, offdiag, off2 = blocks.diag, blocks.offdiag, blocks.off2
    q = diag[0] - x
    built = len(diag)
    negative = np.empty((built,) + q.shape, dtype=bool)
    ratio = np.empty_like(q)
    np.less(q, pivmin, out=negative[0])
    np.minimum(q, negpiv, out=q, where=negative[0])
    for i in range(1, blocks.n):
        if i == built:
            blocks.grow(i + 1)
            diag, offdiag, off2, built = blocks.diag, blocks.offdiag, blocks.off2, len(blocks.diag)
            negative = np.resize(negative, (built,) + q.shape)  # rows i on: set below
        np.divide(off2[i - 1], q, out=ratio)
        np.subtract(diag[i], ratio, out=q)
        q -= x
        np.less(q, pivmin, out=negative[i])
        np.minimum(q, negpiv, out=q, where=negative[i])
        if i + 1 >= tail and i + 1 < blocks.n and (q >= offdiag[i]).all():
            return negative[:i + 1].sum(axis=0), i
    return negative.sum(axis=0), blocks.n


def _dominant_tail(diag: np.ndarray, radii: np.ndarray, hi: np.ndarray,
                   pivmin: np.ndarray) -> int:
    """First row from which every block's rows are dominant below hi.

    Row j is dominant when d_j - hi exceeds (1 + m)(|t_(j-1)| + |t_j|) +
    m(|d_j| + |hi|) + pivmin with m = _DOMINANCE, a margin far above the
    rounding of one pivot step.  Returns 1 plus the last row that is not
    dominant in some column (n if that is the last row, 0 if there is none).
    """
    dominant = (diag - hi - (1.0 + _DOMINANCE) * radii
                - _DOMINANCE * (np.abs(diag) + np.abs(hi)) > pivmin)
    weak = np.flatnonzero(~dominant.all(axis=1))
    return int(weak[-1]) + 1 if weak.size else 0


def _parity_tail(omega: float, g: np.ndarray,
                 n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Rows n of the parity diagonals, those diagonals (2, len(n)), their minima hi, and the tail.

    d_i depends only on the parity, and t_i = sqrt(i + 1) g/2 grows with g,
    so the _dominant_tail of the blocks at n_max of a g grid is that of the
    largest g's two blocks: a row dominant there is dominant at every g.
    Every row j >= max(4 / omega, 128 (g / omega)^2) is dominant by
    about omega j / 2 (d_j - hi >= omega j - 1, r_j <= g sqrt(j + 1)
    <= omega j / 8), so n is the rows below that, and n_max - 2 to n_max.
    """
    top = g.max(initial=0.0)
    rows = min(n_max + 1, max(2, math.ceil(4.0 / omega + 128.0 * (top / omega) ** 2)))
    n = np.concatenate([np.arange(rows), np.arange(max(rows, n_max - 2), n_max + 1)])
    diag = _parity_diagonals(omega, n)
    hi = diag.min(axis=1)  # at row 0 or 1: d_(i+2) = d_i + 2 omega
    radii = _radii(np.sqrt(n[:min(rows, n_max)] + 1.0)[:, None] * (0.5 * top))[:rows]
    last = math.sqrt(n_max) * (0.5 * top)  # t_(n_max - 1)
    return n, diag, hi, _dominant_tail(diag[:, :rows].T, radii, hi, max(last * last, 1.0) * _TINY)


def _lattice_depth(lo: np.ndarray, hi: np.ndarray, pivmin: np.ndarray) -> np.ndarray:
    """Smallest K with (hi - lo) 2^-K <= S/2 - eps (hi - lo) for brackets [lo, hi].

    S = max(_TOL, pivmin, 2 eps (max(|lo|, |hi|) - (hi - lo))) is at most the
    stop of any bracket inside [lo, hi], so each lattice cell, rounding of
    its points included, meets the stop of its own ends.  A bracket at most
    _COARSE max(1, |lo|, |hi|) wide gets K <= 50: below 2^62, so the int64
    indices of its points and their products with _TRIALS do not overflow.
    """
    width = hi - lo
    span = np.maximum(np.abs(lo), np.abs(hi))
    stop = np.maximum(np.maximum(_TOL, pivmin), 2.0 * _EPS * np.maximum(span - width, 0.0))
    target = 0.5 * stop - _EPS * width
    depth = np.ceil(np.log2(width / target)).astype(np.int64)
    depth -= np.ldexp(width, 1 - depth) <= target
    return depth + (np.ldexp(width, -depth) > target)


def _lowest_eigenpairs(blocks: _Blocks, bracket: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of every column's block and the residual of its eigenpair.

    blocks holds n rows per column, offdiagonals >= 0; only the rows that
    the passes, the guess and the residual read are built.  A column's
    _TRIALS points per pass follow from its own state: coarse, uniform in
    [lo, hi] until hi - lo <= _COARSE max(1, |lo|, |hi|); then on the
    lattice anchored there, lo + (hi - lo) i 2^-K (K from _lattice_depth),
    uniform in its index bracket (the fallback) except in a ladder pass,
    floor(theta) + _LADDER.  theta is the Rayleigh quotient of _GUESS_STEPS
    inverse-iteration steps shifted below lo on the leading tail +
    _GUESS_ROWS rows, computed for every column at once when no moving
    column is coarse, and again, up to _GUESSES times, after a ladder pass
    that leaves a moving column more than _TRIALS + 1 cells wide.  A
    column stops at hi - lo <= max(_TOL, 2 eps max(|lo|, |hi|), pivmin) or
    at one lattice cell, which is no wider; that cell depends on the
    column's counts alone, not on theta or the batch.
    bracket is (lo, hi, pivmin, tail, scale) as _parity_rows reads it.
    The residual cut reads up to twice the largest reach of a pass.
    """
    lo, hi, pivmin, tail, scale = bracket
    n, width = blocks.n, blocks.diag.shape[1]
    columns = np.arange(width)
    floor = np.maximum(_TOL, pivmin)
    lattice = np.zeros(width, dtype=bool)
    anchor, cell = np.zeros(width), np.zeros(width)  # a and w 2^-K of each lattice
    # Index brackets on the lattice; index 0 is lo itself and 2^K stands for
    # hi, which no pass counts again, so lo and hi keep their own values.
    ilo, ihi = np.zeros(width, dtype=np.int64), np.zeros(width, dtype=np.int64)
    # A pass's trial points and their lattice indices in rows 1 to _TRIALS,
    # each bracket's ends in rows 0 and _TRIALS + 1.
    points = np.empty((_TRIALS + 2, width))
    index = np.empty((_TRIALS + 2, width), dtype=np.int64)
    trials, inner = points[1:-1], index[1:-1]
    vectors = []  # the vectors of each guess
    reach = 0
    for _ in range(_MAX_SWEEPS):
        span = np.maximum(np.abs(lo), np.abs(hi))
        gap = hi - lo
        moving = np.where(lattice, ihi - ilo > 1, gap > np.maximum(floor, 2.0 * _EPS * span))
        if not moving.any():
            break
        coarse = moving & ~lattice
        enter = coarse & (gap <= _COARSE * np.maximum(1.0, span))
        if enter.any():
            depth = _lattice_depth(lo[enter], hi[enter], pivmin[enter])
            anchor[enter] = lo[enter]
            cell[enter] = np.ldexp(gap[enter], -depth)
            ilo[enter], ihi[enter] = 0, np.left_shift(1, depth)
            lattice |= enter
            coarse &= ~enter
        np.floor_divide((ihi - ilo) * _NUMERATORS, _TRIALS + 1, out=inner)
        inner += ilo
        if not coarse.any() and len(vectors) < _GUESSES and (
                not vectors or (moving & (ihi - ilo > _TRIALS + 1)).any()):
            m = min(n, tail + _GUESS_ROWS)
            blocks.grow(m)
            theta, guess = _rayleigh_guess(blocks.diag[:m], blocks.offdiag[:m - 1],
                                           lo - _SHIFT * scale)
            vectors.append(np.zeros((min(n, m + 1), width)))  # row m: the coupling out
            vectors[-1][:m] = guess
            # fmax and fmin drop a NaN guess for the bracket's lower end.
            at = np.fmin(np.fmax((theta[moving] - anchor[moving]) / cell[moving], ilo[moving]),
                         ihi[moving])
            inner[:, moving] = np.clip(np.floor(at).astype(np.int64) + _LADDER,
                                       ilo[moving] + 1, ihi[moving] - 1)
        np.multiply(cell, inner, out=trials)
        trials += anchor
        if not lattice.all():
            np.copyto(trials, lo + gap * _FRACTIONS, where=~lattice)
        counts, last = _sturm_count(blocks, trials, pivmin, tail)
        reach = max(reach, last)
        # The first trial point with an eigenvalue below it is the new upper
        # end, the point before it the new lower end; a column at rest keeps
        # its ends (rows 0 and _TRIALS + 1).
        hit = counts >= 1
        first = np.where(hit.any(axis=0), hit.argmax(axis=0), _TRIALS)
        points[0], points[-1], index[0], index[-1] = lo, hi, ilo, ihi
        low, high = np.where(moving, first, 0), np.where(moving, first + 1, _TRIALS + 1)
        lo, hi = points[low, columns], points[high, columns]
        ilo, ihi = index[low, columns], index[high, columns]
    else:
        raise ConvergenceFailure(
            f"multisection exceeded {_MAX_SWEEPS} sweeps; block is malformed")
    values = 0.5 * (lo + hi)
    return values, _eigenpair_residual(blocks, values, reach, vectors, scale)


def _eigenpair_residual(blocks: _Blocks, values: np.ndarray, reach: int,
                        vectors: list[np.ndarray], scale: np.ndarray) -> np.ndarray:
    """Residuals ||T v - value v||, one per column's block, within 1e-10 times its scale.

    vectors holds the vectors of each guess in turn (empty if there was
    none): the leading rows of a unit vector per column, 0 in the last
    row unless it has all n.  A column keeps the residual of the first of
    its vectors that meets the target.  The others run
    inverse iteration on the leading m x m block, m = min(n, max(2, 2 reach)),
    shifted _SHIFT scale below the value, so that the shifted block is
    positive definite and its LDL^T solve needs no pivoting; the coupling
    t_(m-1) v_(m-1) into row m joins the residual, so it is that of a unit
    vector against the whole block.  A block that misses within
    _INVERSE_STEPS solves is solved again with m doubled, up to n;
    ConvergenceFailure if it misses at m = n.  scale is max(1, norm bound).
    """
    n, m = blocks.n, min(blocks.n, max(2, 2 * reach))
    residuals = np.full(len(values), np.inf)
    for guess in vectors:
        k = len(guess)
        blocks.grow(k)
        direct = np.sqrt(np.sum(np.square(_apply(blocks.diag[:k] - values,
                                                 blocks.offdiag[:k - 1], guess)), axis=0))
        met = np.isinf(residuals) & (direct <= _RESIDUAL_TOL * scale)
        residuals[met] = direct[met]
    missing = np.flatnonzero(np.isinf(residuals))  # the columns without an accepted residual
    while missing.size:
        blocks.grow(m)
        coupling = blocks.offdiag[m - 1, missing] if m < n else 0.0
        residuals[missing] = _inverse_iteration(blocks.diag[:m, missing],
                                                blocks.offdiag[:m - 1, missing], coupling,
                                                values[missing], scale[missing])
        missing = np.flatnonzero(np.isinf(residuals))
        if not missing.size:
            break
        if m == n:
            raise ConvergenceFailure("inverse iteration did not reach the residual target")
        m = min(n, 2 * m)
    return residuals


def _apply(diag: np.ndarray, offdiag: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T v for every column's tridiagonal block T (diag, offdiag)."""
    r = diag * v
    r[:-1] += offdiag * v[1:]
    r[1:] += offdiag * v[:-1]
    return r


def _shifted_ldl(diag: np.ndarray, offdiag: np.ndarray,
                 shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivots and unit lower multipliers of T - shift = L D L^T, without pivoting."""
    pivots = diag - shift
    off2 = offdiag * offdiag
    for i in range(1, len(pivots)):
        pivots[i] -= off2[i - 1] / pivots[i - 1]
    return pivots, offdiag / pivots[:-1]


def _inverse_steps(pivots: np.ndarray, lower: np.ndarray, steps: int):
    """Unit vectors of successive solves with L D L^T, from the start (-1)^n."""
    v = np.repeat((1.0 - 2.0 * (np.arange(len(pivots)) % 2))[:, None], pivots.shape[1], axis=1)
    rows, lows, term = list(v), list(lower), np.empty_like(v[0])
    for _ in range(steps):
        for i in range(1, len(rows)):
            rows[i] -= np.multiply(lows[i - 1], rows[i - 1], out=term)
        v /= pivots
        for i in range(len(rows) - 2, -1, -1):
            rows[i] -= np.multiply(lows[i], rows[i + 1], out=term)
        v /= np.sqrt(np.sum(v * v, axis=0))
        yield v


def _rayleigh_guess(diag: np.ndarray, offdiag: np.ndarray,
                    shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh quotient and unit vector after _GUESS_STEPS solves with T - shift.

    shift lies below every block's smallest eigenvalue, so no pivoting is needed.
    """
    for v in _inverse_steps(*_shifted_ldl(diag, offdiag, shift), _GUESS_STEPS):
        pass
    return np.sum(v * _apply(diag, offdiag, v), axis=0), v


def _inverse_iteration(diag: np.ndarray, offdiag: np.ndarray, coupling, values: np.ndarray,
                       scale: np.ndarray) -> np.ndarray:
    """The smallest residual within _RESIDUAL_TOL * scale over _INVERSE_STEPS solves (inf if none).

    Runs on the blocks diag (m, columns), offdiag (m - 1, columns), from the
    start of _inverse_steps; coupling is the offdiagonal entry out of row
    m - 1 (0 for a whole block).
    """
    residuals = np.full(diag.shape[1], np.inf)
    pivots, lower = _shifted_ldl(diag, offdiag, values - _SHIFT * scale)
    for v in _inverse_steps(pivots, lower, _INVERSE_STEPS):
        r = _apply(diag - values, offdiag, v)
        step = np.sqrt(np.sum(np.square(r, out=r), axis=0) + np.square(coupling * v[-1]))
        np.fmin(residuals, np.where(step <= _RESIDUAL_TOL * scale, step, np.inf), out=residuals)
    return residuals


def _in_units(params: ModelParams, g: np.ndarray) -> tuple[float, np.ndarray]:
    """omega and g in units of omega_a, the unit every entry solves in.

    The kernel's absolute floors (the stop _TOL, max(1, ...) in the
    coarse phase and in scale) are then relative to omega_a, so the ED's
    numbers scale with its frequencies.  A g that is positive but below
    omega_a times the smallest double becomes 0 here; it would shift the
    energy by about (g / omega_a)^2 omega_a, far below its rounding.
    """
    return params.omega / params.omega_a, g / params.omega_a


def _parity_rows(omega: float, g: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The arrays (value, residual) of the blocks at n_max of every g, from one kernel call.

    Each has shape (2, len(g)): row 0 the +1 blocks and row 1 the -1 blocks.
    The kernel's bracket (lo, hi, pivmin, tail, scale) is read off the
    blocks' structure, each to the bit as over all rows: [lo, hi] is
    [Gershgorin lower bound, min(diag)] of every column's block, pivmin
    max_i t_i^2 times the smallest normal double and scale max(1, max_i
    |d_i| + |t_(i-1)| + |t_i|); hi and the tail (see _dominant_tail) are
    _parity_tail's.  pivmin comes from t_(n_max - 1), as t_i grows with i.
    A dominant row j has d_j - r_j > hi >= lo, so lo is a minimum over the
    rows above the tail.  r_i grows with i up to n_max - 1, so the norm
    bound is attained at row n_max or at a row whose |d_i| exceeds that of
    every later row below n_max.  Below n_max - 2 that needs d_i < 0, as
    |d_(i+2)| >= d_i, so the row is in _parity_tail's n.  The kernel builds
    only the rows it reads, at first those the guess reads.
    """
    if n_max < 2:
        raise InvalidInput("n_max must be >= 2")
    n, diag, hi, tail = _parity_tail(omega, g, n_max)
    build = partial(_block_columns, omega, g, n_max)
    blocks = _Blocks(*build(min(n_max + 1, tail + _GUESS_ROWS + 1)), n_max + 1, build)
    lo = np.min(blocks.diag[:tail] - _radii(blocks.offdiag[:tail])[:tail], axis=0)
    size = np.abs(diag[:, :-1])
    later = np.maximum.accumulate(size[:, ::-1], axis=1)[:, -2::-1]  # max |d_j|, j later in n
    at = np.append(np.flatnonzero((size[:, :-1] > later).any(axis=0)), [len(n) - 2, len(n) - 1])
    root = np.sqrt(np.stack([n[at], n[at] + 1]) + 0.0)  # sqrt(j + 1) of t_j, j = i - 1 and i
    root[1, -1] = 0.0  # row n_max has no t_(n_max)
    t = np.abs(root[:, :, None] * (0.5 * g))  # t[0, -1] is t_(n_max - 1)
    bound = np.abs(np.repeat(diag[:, at].T, len(g), axis=1)) + np.tile(t[0] + t[1], 2)
    pivmin = np.maximum(t[0, -1] * t[0, -1], 1.0) * _TINY
    bracket = (lo, np.repeat(hi, len(g)), np.tile(pivmin, 2), tail,
               np.maximum(np.max(bound, axis=0), 1.0))
    return tuple(a.reshape(2, len(g)) for a in _lowest_eigenpairs(blocks, bracket))


def smallest_eigenvalue(params: ModelParams, parity: int, n_max: int = 300) -> tuple[float, float]:
    """Smallest eigenvalue of the parity block (+1 or -1) at n_max photons, and its residual.

    Returns (value, ||H v - E v||) from the kernel call of _ground_rows, so
    the smaller value of the two parities is ground_energy's, to the bit.
    Not exported by the package; the benchmark's tracer (bench/tracing.py)
    patches it by name.
    """
    if parity not in (-1, 1):
        raise InvalidInput("parity must be +1 or -1")
    rows = _parity_rows(*_in_units(params, ed_couplings(params, params.g)), n_max)
    return tuple(float(a[(1 - parity) // 2, 0] * params.omega_a) for a in rows)


def _ground_rows(omega: float, g: np.ndarray, n_max: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays (energy, parity, residual) of the ground state at every g; ties go to +1."""
    (plus, minus), residuals = _parity_rows(omega, g, n_max)
    odd = minus < plus
    return np.where(odd, minus, plus), np.where(odd, -1, 1), np.where(odd, *residuals[::-1])


def ground_energy(params: ModelParams, n_max: int = 300) -> tuple[float, int, float, float]:
    """The ground state of _ground_rows at params.g, and its truncation gap.

    Returns (energy, parity, residual, truncation_gap): parity is the ground
    state's sector (+1 on a tie), residual ||H v - E v|| of its eigenpair, and
    truncation_gap |E(n_max) - E(half)|, a convergence indicator, from a
    second solve at half = max(2, n_max // 2).  Where no Sturm pass reads
    past row half + 1 the two solves see the same counts, and the gap is 0.
    """
    omega, g = _in_units(params, ed_couplings(params, params.g))
    energy, parity, residual = _ground_rows(omega, g, n_max)
    half = _ground_rows(omega, g, max(2, n_max // 2))[0]
    unit = params.omega_a
    return (float(energy[0] * unit), int(parity[0]), float(residual[0] * unit),
            float(abs(energy[0] - half[0]) * unit))


def compare_columns(params: ModelParams, g, n_max: int = 300
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Variational energy against exact diagonalization over a g grid, as columns.

    The arrays (g, energy_ed, energy_variational, deviation) in grid order;
    params.g is ignored.  The coherent-state variational energy is -omega_a/2
    up to g_c = sqrt(omega*omega_a), then -(omega/4)*(g^2/omega^2 +
    omega_a^2/g^2); continuous at g_c, and identical to the scaled
    cavity-model energy at its normal-branch minimum with zeta = 0, for any
    atom number.  deviation, variational minus ED, stays >= 0 up to the
    truncation and bisection error: the variational energy is an upper bound.
    The grid is checked by ed_couplings and solved in batches of
    _BATCH_ENTRIES // (2 rows) points, rows = min(n_max + 1, tail +
    _GUESS_ROWS + 1) the rows the kernel first builds for the grid's tail
    (the tail is not needed where n_max + 1 rows fit); each row's numbers
    do not depend on the others.
    """
    g = ed_couplings(params, g)
    ratio, scaled = _in_units(params, g)
    rows = n_max + 1
    if 2 * len(g) * rows > _BATCH_ENTRIES:
        rows = min(rows, _parity_tail(ratio, scaled, n_max)[3] + _GUESS_ROWS + 1)
    step = max(1, _BATCH_ENTRIES // (2 * rows))
    energy = params.omega_a * np.concatenate(
        [_ground_rows(ratio, scaled[start:start + step], n_max)[0]
         for start in range(0, len(g), step)] or [g])
    omega, omega_a = params.omega, params.omega_a
    variational = np.full(g.shape, -omega_a / 2.0)
    above = g > math.sqrt(omega * omega_a)
    g2 = g[above] ** 2
    variational[above] = -(omega / 4.0) * (g2 / omega**2 + omega_a**2 / g2)
    return g, energy, variational, variational - energy
