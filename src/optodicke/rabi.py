"""Exact diagonalization of the quantum Rabi model in a truncated Fock basis.

With no mechanical oscillator (zeta = 0) and a single atom the cavity model
reduces to the Rabi Hamiltonian

    H = omega*a^dag*a + (omega_a/2)*sigma_z + (g/2)*(a + a^dag)*sigma_x .

H commutes with the parity operator sigma_z*(-1)^(a^dag a), so the truncated
matrix splits into two symmetric tridiagonal blocks, one per parity sector:

    d_n = omega*n + parity*(omega_a/2)*(-1)^n,   t_n = (g/2)*sqrt(n+1) .

One batched kernel finds the smallest eigenvalue of many blocks at once;
each column of the batch is one (g point, parity sector) block, solved at
the truncation n_max.  It brackets the eigenvalue between the Gershgorin
lower bound and min(diag), then shrinks every bracket by multisection: each
sweep runs the LDL^T (Sturm count) recurrence once over n, with numpy
operations across all columns and several trial points per column, and
stops the pass early once the remaining rows are diagonally dominant.  A
column stops with the relative rule of LAPACK dstebz, hi - lo <= max(tol,
2*eps*max(|lo|, |hi|), pivmin), so large eigenvalues converge to the spacing
of doubles near them.

The truncation gap compares with the blocks at n_max // 2, which are the
leading rows of the n_max blocks.  Where no pass reads past row
n_max // 2 + 1, both truncations give the same counts and the gap is 0.
Otherwise the half blocks are solved too: in the same batch when the n_max
blocks are not dominant from that row on, else in a second call.

The eigenpair residual is then checked by inverse iteration, shifted just
below the eigenvalue so that the shifted block is positive definite and its
O(n) LDL^T solve needs no pivoting.  It runs on the leading 2*reach rows,
where the eigenvector lives (reach: the last row a Sturm pass read, n if one
read them all), and doubles them up to n until the residual meets its
target.  The coupling out of the last of those rows joins the residual, so
it is the residual of a unit vector against the whole block.  No dense
matrix is formed.  This gives an oracle fully independent of the
variational closed forms it is compared against, and each column's
eigenvalue does not depend on the other columns of its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "RabiParams",
    "TridiagonalBlock",
    "EDResult",
    "ComparisonRow",
    "ConvergenceFailure",
    "build_blocks",
    "smallest_eigenvalue",
    "ground_energy",
    "variational_energy",
    "compare_curve",
    "DETUNING_PRESETS",
]

# Cavity frequencies used for the red/blue detuned comparison runs.
DETUNING_PRESETS = {"red": 0.8, "resonant": 1.0, "blue": 1.2}

# Trial points per block and sweep: each sweep shrinks a bracket 16-fold.
_TRIALS = 15
# A bracket between finite doubles is one double wide after at most about
# 2100 halvings.
_MAX_SWEEPS = math.ceil(2100 / math.log2(_TRIALS + 1))
# Relative margin of the diagonal-dominance test that ends a Sturm pass early.
_DOMINANCE = 1e-8
# Inverse-iteration shift below the eigenvalue, relative to the block norm,
# the number of solves, and the accepted residual relative to the norm.
_SHIFT = 1e-11
_INVERSE_STEPS = 3
_RESIDUAL_TOL = 1e-10
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# Bounds of the frequencies and of g (see RabiParams).
DOMAIN_MIN = 1e-50
DOMAIN_MAX = 1e50
# Entries of one (n, columns) array of a kernel call; compare_curve splits a
# longer grid into batches of this size, so memory does not grow with it.
_BATCH_ENTRIES = 2**18


class ConvergenceFailure(Exception):
    """Eigenvalue bisection or inverse iteration failed; input is malformed."""


@dataclass(frozen=True)
class RabiParams:
    """Rabi-limit parameters; the sigma_x coupling strength is g/2.

    The domain of the ED and of variational_energy: omega and omega_a in
    [DOMAIN_MIN, DOMAIN_MAX], g in [0, DOMAIN_MAX].  There every block entry
    and its square (for n_max up to 1e5), and g^2/omega^2, fit in doubles.
    """

    omega: float = 1.0
    omega_a: float = 1.0
    g: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.omega, self.omega_a, self.g)):
            raise ValueError("omega, omega_a and g must be finite")
        for name in ("omega", "omega_a"):
            if not DOMAIN_MIN <= getattr(self, name) <= DOMAIN_MAX:
                raise ValueError(f"{name} must be in [{DOMAIN_MIN:g}, {DOMAIN_MAX:g}], "
                                 f"got {getattr(self, name)!r}")
        if not 0.0 <= self.g <= DOMAIN_MAX:
            raise ValueError(f"g must be in [0, {DOMAIN_MAX:g}], got {self.g!r}")


@dataclass(frozen=True)
class TridiagonalBlock:
    """One parity sector: diagonal d (length n_max+1) and offdiagonal t."""

    parity: int
    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        if self.parity not in (-1, 1):
            raise ValueError("parity must be +1 or -1")
        if len(self.diag) != len(self.offdiag) + 1:
            raise ValueError("need len(diag) == len(offdiag) + 1")
        if np.any(self.offdiag < 0.0):
            raise ValueError("offdiagonal entries must be >= 0")

    @property
    def n_max(self) -> int:
        return len(self.diag) - 1

    def norm_bound(self) -> float:
        """Infinity-norm bound on the block, used as the residual scale."""
        return float(_norm_bounds(self.diag[:, None], self.offdiag[:, None])[0])

    def dense(self) -> np.ndarray:
        return (np.diag(self.diag) + np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1))


def _block_columns(omega: float, omega_a: float, g: np.ndarray,
                   n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (n_max + 1, 2 len(g)) and offdiagonals (n_max, 2 len(g)).

    Each column is one parity block: column i the +1 block of g[i] and
    column len(g) + i its -1 block.
    """
    n = np.arange(n_max + 1)
    offdiag = np.sqrt(n[:-1] + 1.0)[:, None] * (0.5 * np.asarray(g, dtype=float))
    diag = np.stack([omega * n + parity * 0.5 * omega_a * (-1.0) ** n for parity in (+1, -1)],
                    axis=1)
    return np.repeat(diag, len(g), axis=1), np.concatenate([offdiag, offdiag], axis=1)


def build_blocks(params: RabiParams, n_max: int) -> tuple[TridiagonalBlock, TridiagonalBlock]:
    """The two parity blocks of the Rabi matrix truncated at n_max photons.

    Their direct sum is unitarily equivalent to the full two-level (x) Fock
    matrix, so the union of the block spectra is the truncated spectrum.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    diag, offdiag = _block_columns(params.omega, params.omega_a, np.array([params.g]), n_max)
    return tuple(TridiagonalBlock(parity=parity, diag=np.ascontiguousarray(diag[:, i]),
                                  offdiag=np.ascontiguousarray(offdiag[:, i]))
                 for i, parity in enumerate((+1, -1)))


def _radii(offdiag: np.ndarray) -> np.ndarray:
    """Gershgorin radii |t_(i-1)| + |t_i| of every column's block (n, columns)."""
    pad = np.zeros((len(offdiag) + 2, offdiag.shape[1]))
    pad[1:-1] = np.abs(offdiag)
    return pad[:-1] + pad[1:]


def _norm_bounds(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Infinity-norm bound max_i |d_i| + |t_(i-1)| + |t_i| of every column's block."""
    return np.max(np.abs(diag) + _radii(offdiag), axis=0)


def _sturm_count(diag: np.ndarray, offdiag: np.ndarray, x: np.ndarray, pivmin: np.ndarray,
                 tail: int) -> tuple[np.ndarray, int]:
    """Eigenvalues strictly below each trial point (negative pivots of LDL^T).

    diag is (n, columns), offdiag (n - 1, columns) and >= 0, x the trial
    points (k, columns) and pivmin (columns,).  As in LAPACK dstebz, the
    pivots are q_i = (d_i - t_(i-1)^2 / q_(i-1)) - x, and a pivot smaller
    than pivmin in magnitude (an exact 0 too) is replaced by -pivmin, so a
    pivot counts as negative exactly when it is below pivmin.  One pass over
    n serves every block and trial point; returns counts (k, columns) and
    the pass's reach: the row it stopped at, or n if it read every row.

    Rows from tail on are diagonally dominant below every trial point (see
    _dominant_tail).  Once every pivot q_i with i >= tail - 1 is at least
    t_i, each later pivot q_j exceeds t_j + pivmin, so the pass stops there
    with the counts of the full recurrence; the pivots of row i and of every
    row after it are then non-negative.
    """
    negpiv = -pivmin
    off2 = offdiag * offdiag
    q = diag[0] - x
    negative = np.empty((len(diag),) + q.shape, dtype=bool)
    ratio = np.empty_like(q)
    np.less(q, pivmin, out=negative[0])
    np.minimum(q, negpiv, out=q, where=negative[0])
    for i in range(1, len(diag)):
        np.divide(off2[i - 1], q, out=ratio)
        np.subtract(diag[i], ratio, out=q)
        q -= x
        np.less(q, pivmin, out=negative[i])
        np.minimum(q, negpiv, out=q, where=negative[i])
        if i + 1 >= tail and i + 1 < len(diag) and np.all(q >= offdiag[i]):
            return negative[:i + 1].sum(axis=0), i
    return negative.sum(axis=0), len(diag)


def _dominant_tail(diag: np.ndarray, radii: np.ndarray, hi: np.ndarray,
                   pivmin: np.ndarray) -> int:
    """First row from which every block's rows are dominant below hi.

    Row j is dominant when d_j - hi exceeds (1 + m)(|t_(j-1)| + |t_j|) +
    m(|d_j| + |hi|) + pivmin with m = _DOMINANCE, a margin far above the
    rounding of one pivot step.  Returns the largest such start over the
    columns (n if some block's last row is not dominant).
    """
    dominant = (diag - hi - (1.0 + _DOMINANCE) * radii
                - _DOMINANCE * (np.abs(diag) + np.abs(hi)) > pivmin)
    from_here = np.logical_and.accumulate(dominant[::-1], axis=0)[::-1]
    return len(diag) - int(from_here.sum(axis=0).min())


def _bracket(diag: np.ndarray, offdiag: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Start of the multisection: (lo, hi, pivmin, tail) of a batch.

    [lo, hi] is [Gershgorin lower bound, min(diag)] of every column's block,
    pivmin max_i t_i^2 times the smallest normal double, and tail the
    batch's _dominant_tail below hi.
    """
    radii = _radii(offdiag)
    lo = np.min(diag - radii, axis=0)
    hi = np.min(diag, axis=0)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ConvergenceFailure("non-finite Gershgorin interval; block is malformed")
    pivmin = np.max(offdiag * offdiag, axis=0, initial=1.0) * _TINY
    return lo, hi, pivmin, _dominant_tail(diag, radii, hi, pivmin)


def _lowest_eigenpairs(diag: np.ndarray, offdiag: np.ndarray, tol: float = 1e-12,
                       bracket: tuple | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Smallest eigenvalue of every column's block, the residual of its eigenpair, and reach.

    diag is (n, columns) and offdiag (n - 1, columns), >= 0.  Multisection
    with _TRIALS points per sweep on [Gershgorin lower bound, min(diag)]; a
    column's bracket freezes once hi - lo <= max(tol, 2*eps*max(|lo|, |hi|),
    pivmin).  bracket is _bracket(diag, offdiag) when the caller has it.
    reach is the largest reach of any Sturm pass (0 if no pass ran): no
    count depends on a row after it.  Returns (values, residuals, reach).
    """
    lo, hi, pivmin, tail = _bracket(diag, offdiag) if bracket is None else bracket
    fractions = (np.arange(1, _TRIALS + 1) / (_TRIALS + 1))[:, None]
    columns = np.arange(diag.shape[1])
    reach = 0
    for _ in range(_MAX_SWEEPS):
        stop = np.maximum(np.maximum(tol, pivmin),
                          2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))
        moving = hi - lo > stop
        if not moving.any():
            break
        points = np.concatenate([lo[None], lo + (hi - lo) * fractions, hi[None]])
        counts, last = _sturm_count(diag, offdiag, points[1:-1], pivmin, tail)
        reach = max(reach, last)
        # The first trial point with an eigenvalue below it is the new upper
        # end, the point before it the new lower end.
        hit = counts >= 1
        first = np.where(hit.any(axis=0), hit.argmax(axis=0), _TRIALS)
        lo = np.where(moving, points[first, columns], lo)
        hi = np.where(moving, points[first + 1, columns], hi)
    else:
        raise ConvergenceFailure(
            f"multisection exceeded {_MAX_SWEEPS} sweeps; block is malformed")
    values = 0.5 * (lo + hi)
    return values, _eigenpair_residual(diag, offdiag, values, reach), reach


def _eigenpair_residual(diag: np.ndarray, offdiag: np.ndarray, values: np.ndarray,
                        reach: int | None = None) -> np.ndarray:
    """Inverse-iteration residuals ||T v - value v||, one per column's block.

    v is a unit vector of the whole space that is 0 past the leading m rows:
    inverse iteration runs on the leading m x m block, m = min(n, 2 reach)
    (at least 2; m = n when reach is None), and the coupling t_(m-1) v_(m-1)
    into row m joins the residual, so it is the residual of v against the
    whole block.  Each block is shifted by _SHIFT times its norm bound below its
    value; the leading block minus the shift is then positive definite (its
    smallest eigenvalue is at least the whole block's), so its LDL^T
    factorization needs no pivoting and each solve costs O(m).  A block
    that misses 1e-10 times its scale within _INVERSE_STEPS solves is
    solved again with m doubled, up to n; ConvergenceFailure if it misses
    at m = n.
    """
    n = len(diag)
    m = n if reach is None else min(n, max(2, 2 * reach))
    scale = np.maximum(_norm_bounds(diag, offdiag), 1.0)
    residuals = np.full(diag.shape[1], np.inf)
    missing = slice(None)  # the columns without an accepted residual
    while True:
        coupling = offdiag[m - 1, missing] if m < n else 0.0
        residuals[missing] = _inverse_iteration(diag[:m, missing], offdiag[:m - 1, missing],
                                                coupling, values[missing], scale[missing])
        missing = np.flatnonzero(np.isinf(residuals))
        if not missing.size:
            return residuals
        if m == n:
            raise ConvergenceFailure("inverse iteration did not reach the residual target")
        m = min(n, 2 * m)


def _inverse_iteration(diag: np.ndarray, offdiag: np.ndarray, coupling, values: np.ndarray,
                       scale: np.ndarray) -> np.ndarray:
    """The first residual within _RESIDUAL_TOL * scale over _INVERSE_STEPS solves (inf if none).

    Runs on the blocks diag (m, columns), offdiag (m - 1, columns); coupling
    is the offdiagonal entry out of row m - 1 (0 for a whole block).
    """
    shift = values - _SHIFT * scale
    pivots = np.empty_like(diag)
    pivots[0] = diag[0] - shift
    for i in range(1, len(diag)):
        pivots[i] = (diag[i] - shift) - offdiag[i - 1] * offdiag[i - 1] / pivots[i - 1]
    lower = offdiag / pivots[:-1]

    start = np.random.default_rng(1905).standard_normal(len(diag))
    v = np.repeat(start[:, None], diag.shape[1], axis=1)
    residuals = np.full(diag.shape[1], np.inf)
    for _ in range(_INVERSE_STEPS):
        for i in range(1, len(v)):
            v[i] -= lower[i - 1] * v[i - 1]
        v /= pivots
        for i in range(len(v) - 2, -1, -1):
            v[i] -= lower[i] * v[i + 1]
        v /= np.sqrt(np.sum(v * v, axis=0))
        r = (diag - values) * v
        r[:-1] += offdiag * v[1:]
        r[1:] += offdiag * v[:-1]
        step = np.sqrt(np.sum(np.square(r, out=r), axis=0) + np.square(coupling * v[-1]))
        newly = np.isinf(residuals) & (step <= _RESIDUAL_TOL * scale)
        residuals[newly] = step[newly]
        if not np.isinf(residuals).any():
            break
    return residuals


def smallest_eigenvalue(block: TridiagonalBlock, tol: float = 1e-12) -> tuple[float, float]:
    """Minimal eigenvalue of a block and the residual of its eigenpair.

    A batch of one for the multisection kernel: the bracket stops at
    max(tol, 2*eps*|value|, pivmin); returns (value, ||H v - E v||).
    """
    values, residuals, _ = _lowest_eigenpairs(np.asarray(block.diag, dtype=float)[:, None],
                                              np.asarray(block.offdiag, dtype=float)[:, None],
                                              tol)
    return float(values[0]), float(residuals[0])


@dataclass(frozen=True)
class EDResult:
    """Ground energy over both parity sectors of the truncated Rabi matrix.

    truncation_gap is |E(n_max) - E(n_max // 2)|, a convergence indicator;
    it is 0 where the two agree to the bisection stop (no Sturm pass read
    past row n_max // 2 + 1).
    """

    energy: float
    parity: int
    n_max: int
    residual: float
    truncation_gap: float


def _ground_rows(omega: float, omega_a: float, g: np.ndarray, n_max: int) -> list[EDResult]:
    """Ground energies at every g of a grid, from one kernel call (two if the gap needs it).

    The kernel solves the +1 and -1 blocks at n_max.  The blocks at half =
    n_max // 2 (at least 2) are the leading rows of those, so where no Sturm
    pass reads past row half + 1 they give the same count at every trial
    point, and their eigenvalues lie in the same final brackets: the gap is
    0.  Where the n_max blocks are not dominant from row half + 1 on, every
    pass reads that far anyway, and the half blocks join the same batch: a
    half block there keeps the length of the full ones, with offdiagonals 0
    past index half and its own largest diagonal entry on the diagonal,
    which leaves its smallest eigenvalue, bracket, pivmin and norm bound
    those of the half block.  Otherwise, if a pass still reads past row
    half + 1, a second kernel call solves the half blocks.  Ties between the
    parity sectors go to +1.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    half = max(2, n_max // 2)
    diag, offdiag = _block_columns(omega, omega_a, g, n_max)
    bracket = _bracket(diag, offdiag)
    together = bracket[3] > half + 1  # the n_max blocks' dominant tail
    if together:
        diag, offdiag = (np.concatenate([a, a], axis=1) for a in (diag, offdiag))
        halves = slice(diag.shape[1] // 2, None)
        diag[half + 1:, halves] = np.max(diag[:half + 1, halves], axis=0)
        offdiag[half:, halves] = 0.0
        bracket = None
    values, residuals, reach = _lowest_eigenpairs(diag, offdiag, bracket=bracket)
    plus, minus = values[:len(g)], values[len(g):2 * len(g)]
    odd = minus < plus
    energy = np.where(odd, minus, plus)
    residual = np.where(odd, residuals[len(g):2 * len(g)], residuals[:len(g)])
    if together:
        half_values = values[2 * len(g):]
    elif reach > half + 1:
        half_values = _lowest_eigenpairs(diag[:half + 1], offdiag[:half])[0]
    else:
        half_values = values
    plus_half, minus_half = half_values.reshape(2, len(g))
    gap = np.abs(energy - np.where(minus_half < plus_half, minus_half, plus_half))
    return [EDResult(energy=float(e), parity=-1 if o else 1, n_max=n_max, residual=float(r),
                     truncation_gap=float(d))
            for e, o, r, d in zip(energy, odd, residual, gap)]


def ground_energy(params: RabiParams, n_max: int = 300) -> EDResult:
    """Truncated-basis ground energy, with parity, residual and convergence gap."""
    return _ground_rows(params.omega, params.omega_a, np.array([params.g]), n_max)[0]


def variational_energy(params: RabiParams) -> float:
    """Coherent-state variational ground energy of the Rabi model.

    -omega_a/2 up to g_c = sqrt(omega*omega_a), then
    -(omega/4)*(g^2/omega^2 + omega_a^2/g^2); continuous at g_c.  Identical
    to the scaled cavity-model energy at its normal-branch minimum with
    zeta = 0, for any atom number.
    """
    g_c = math.sqrt(params.omega * params.omega_a)
    if params.g <= g_c:
        return -params.omega_a / 2.0
    return -(params.omega / 4.0) * (params.g**2 / params.omega**2
                                    + params.omega_a**2 / params.g**2)


@dataclass(frozen=True)
class ComparisonRow:
    g: float
    energy_ed: float
    energy_variational: float
    deviation: float  # variational minus ED; >= 0 up to truncation error


def compare_curve(params: RabiParams, g_values: Sequence[float],
                  n_max: int = 300) -> list[ComparisonRow]:
    """Variational energy against exact diagonalization over a g grid.

    params.g is ignored; rows are ordered by the given grid, which is solved
    in batches of _BATCH_ENTRIES // (4 (n_max + 1)) points (each row's
    numbers do not depend on the others).
    The deviation column stays >= 0 up to the truncation and bisection
    error because the variational energy is an upper bound on the true
    ground energy.
    """
    grid = [RabiParams(omega=params.omega, omega_a=params.omega_a, g=float(g)) for g in g_values]
    if not grid:
        return []
    g = np.array([p.g for p in grid])
    step = max(1, _BATCH_ENTRIES // (4 * (n_max + 1)))
    results = [ed for start in range(0, len(g), step)
               for ed in _ground_rows(params.omega, params.omega_a, g[start:start + step], n_max)]
    rows = []
    for p, ed in zip(grid, results):
        ev = variational_energy(p)
        rows.append(ComparisonRow(g=p.g, energy_ed=ed.energy, energy_variational=ev,
                                  deviation=ev - ed.energy))
    return rows
