"""Parameter sweeps and phase-diagram grids, as numpy columns in grid order.

A sweep solves all its g points in one array pass per branch.  A phase grid
needs only the two closed-form boundaries of each zeta row, g_c and the
fold g_t, and labels its cells by comparing g with them; its boundaries are
those exact couplings.  Row objects (SweepRow, GridCell) are built only on
request.  No file I/O happens here, the CLI layer owns serialization.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (ModelParams, Observables, PhaseLabel, SpinBranch, Stability, curvature,
                    observable_terms)
from .solver import (
    COLUMN_PHASE,
    DEFAULT_CONFIG,
    PHASES,
    NotFound,
    SolverConfig,
    critical_coupling,
    is_minimum,
    param_rows,
    solve_ground,
    turning_point,
)

__all__ = [
    "SweepSpec",
    "GridSpec",
    "BranchEntry",
    "SweepRow",
    "Sweep",
    "GridCell",
    "BoundarySample",
    "PhaseGrid",
    "BoundaryRow",
    "BRANCH_TAGS",
    "SWEEP_ZETA_PRESETS",
    "sweep_g",
    "phase_grid",
    "boundary_trace",
]

# Branch tags, in emission order: the two zero-photon states, the stable
# superradiant root, and the unstable nonzero roots of either branch.
BRANCH_TAGS = ("N-", "N+", "gs-", "gus-", "gus+")

# Photon-phonon couplings for the standard set of observable-vs-g sweeps:
# the oscillator-free case, one with a clear multi-transition window, one
# with a narrow window, and one past the collapse of the superradiant phase.
SWEEP_ZETA_PRESETS = (0.0, 1.0, 2.0, 3.0)

# BRANCH_TAGS index of each point column of a Sweep; an unstable normal root
# takes the next tag, gus-.  p is concave on the normal branch, so its smaller
# root is the stable one (or marginal, tagged gs- as well).
_COLUMN_TAGS = np.array([0, 2, 2, 1, 4])
_NORMAL_ROOTS = np.array([0, 1, 1, 0, 0])


@dataclass(frozen=True)
class SweepSpec:
    """A sweep over g at fixed zeta.

    Grid endpoints are inclusive; g_steps is the number of samples.
    """

    omega: float = 1.0
    omega_a: float = 1.0
    omega_b: float = 10.0
    n_atoms: int = 1
    zeta: float = 0.0
    g_min: float = 0.0
    g_max: float = 3.0
    g_steps: int = 301

    def __post_init__(self) -> None:
        if not self.g_min < self.g_max:
            raise ValueError("g_min must be < g_max")
        if self.g_steps < 2:
            raise ValueError("g_steps must be >= 2")
        self.params_at(self.g_min)  # validates the fixed parameters and g_min >= 0

    def params_at(self, g: float) -> ModelParams:
        return ModelParams(omega=self.omega, omega_a=self.omega_a, omega_b=self.omega_b,
                           g=g, zeta=self.zeta, n_atoms=self.n_atoms)

    def grid(self) -> np.ndarray:
        return np.linspace(self.g_min, self.g_max, self.g_steps)


@dataclass(frozen=True)
class GridSpec:
    """A rectangular grid in the g-zeta plane."""

    omega: float = 1.0
    omega_a: float = 1.0
    omega_b: float = 10.0
    n_atoms: int = 1
    g_min: float = 0.0
    g_max: float = 3.0
    g_steps: int = 61
    zeta_min: float = 0.0
    zeta_max: float = 3.0
    zeta_steps: int = 61

    def __post_init__(self) -> None:
        if not self.g_min < self.g_max:
            raise ValueError("g_min must be < g_max")
        if not self.zeta_min < self.zeta_max:
            raise ValueError("zeta_min must be < zeta_max")
        if self.g_steps < 2 or self.zeta_steps < 2:
            raise ValueError("step counts must be >= 2")
        self.params_at(self.g_min, self.zeta_min)

    def params_at(self, g: float, zeta: float) -> ModelParams:
        return ModelParams(omega=self.omega, omega_a=self.omega_a, omega_b=self.omega_b,
                           g=g, zeta=zeta, n_atoms=self.n_atoms)

    def g_grid(self) -> np.ndarray:
        return np.linspace(self.g_min, self.g_max, self.g_steps)

    def zeta_grid(self) -> np.ndarray:
        return np.linspace(self.zeta_min, self.zeta_max, self.zeta_steps)


@dataclass(frozen=True)
class BranchEntry:
    tag: str  # one of BRANCH_TAGS
    observables: Observables
    stability: Stability


@dataclass(frozen=True)
class SweepRow:
    g: float
    phase: PhaseLabel
    ground: Observables
    branches: tuple[BranchEntry, ...]


@dataclass(frozen=True, eq=False)
class Sweep(Sequence):
    """The columns of sweep_g, row i at coupling g[i]; indexing builds SweepRow objects.

    Point columns: those of solver.solve_ground, then the inverted root; n_p,
    delta_n_a, n_b and energy NaN and stability None where a point is absent.
    ground is the ground state's column and phase its index into
    solver.PHASES; source[:, t] is the column tagged BRANCH_TAGS[t], -1 if none.
    """

    g: np.ndarray
    phase: np.ndarray
    ground: np.ndarray
    n_p: np.ndarray
    delta_n_a: np.ndarray
    n_b: np.ndarray
    energy: np.ndarray
    stability: np.ndarray
    source: np.ndarray

    def __len__(self) -> int:
        return self.g.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        points = [Observables(*values) for values in zip(
            *(c[i].tolist() for c in (self.n_p, self.delta_n_a, self.n_b, self.energy)))]
        entries = tuple(BranchEntry(tag, points[j], self.stability[i, j])
                        for tag, j in zip(BRANCH_TAGS, self.source[i].tolist()) if j >= 0)
        return SweepRow(g=float(self.g[i]), phase=PHASES[self.phase[i]],
                        ground=points[self.ground[i]], branches=entries)


@dataclass(frozen=True)
class GridCell:
    g: float
    zeta: float
    phase: PhaseLabel


@dataclass(frozen=True)
class BoundarySample:
    """The exact phase boundary (g_c or g_t) between two adjacent grid cells."""

    zeta: float
    g_refined: float
    phase_below: PhaseLabel
    phase_above: PhaseLabel


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Cell columns in (zeta, g) order, phase an index into solver.PHASES, and the boundaries."""

    g: np.ndarray
    zeta: np.ndarray
    phase: np.ndarray
    boundaries: tuple[BoundarySample, ...]

    @cached_property
    def cells(self) -> tuple[GridCell, ...]:
        """The cells as GridCell objects, built on first use."""
        return tuple(map(GridCell, self.g.tolist(), self.zeta.tolist(),
                         [PHASES[k] for k in self.phase.tolist()]))


@dataclass(frozen=True)
class BoundaryRow:
    zeta: float
    g_c: float
    g_t: float | None


def _sweep(spec: SweepSpec, gs: np.ndarray, config: SolverConfig | None) -> Sweep:
    params = spec.params_at(spec.g_min)
    ground, *points = solve_ground(params, gs, config)
    n_p, delta_n_a, n_b = (np.hstack(pair) for pair in zip(*(observable_terms(
        param_rows(params, gs[:, None]), pts.branch, np.sqrt(pts.x)) for pts in points)))
    stability = np.hstack([pts.stability for pts in points])
    tag = _COLUMN_TAGS + _NORMAL_ROOTS * (stability == Stability.UNSTABLE)
    source = np.full(tag.shape, -1)
    for j in range(tag.shape[1]):  # of two normal roots with one tag, the larger
        i = np.flatnonzero(~np.isnan(n_p[:, j]))
        source[i, tag[i, j]] = j
    return Sweep(g=gs, phase=COLUMN_PHASE[ground], ground=ground, n_p=n_p, delta_n_a=delta_n_a,
                 n_b=n_b, energy=np.hstack([pts.energy for pts in points]),
                 stability=stability, source=source)


def sweep_row(spec: SweepSpec, g: float, config: SolverConfig | None = None) -> SweepRow:
    """The sweep row at one g.  A module global: callers look it up at call time."""
    return _sweep(spec, np.array([float(g)]), config)[0]


def sweep_g(spec: SweepSpec, config: SolverConfig | None = None) -> Sweep:
    """Ground state plus all coexisting branches for each g of the sweep, as columns.

    One branch_points call per branch covers the whole grid, and
    solver.solve_ground picks every ground state by its one rule.
    """
    return _sweep(spec, spec.grid(), config)


def grid_row(spec: GridSpec, zeta: float, config: SolverConfig | None = None
             ) -> tuple[np.ndarray, list[BoundarySample]]:
    """The labels of one zeta row, as indices into solver.PHASES, and its exact boundaries.

    NP_Nminus below g_c, SP on (g_c, g_t), NP_Nplus from g_t up; g_t is
    infinite at zeta = 0 and g_c when the window is closed.  A cell where N-
    is marginal (such as one exactly at g_c) takes solve_ground's label: N-
    where the slope probe shows a minimum (its tie rule favours gamma_bar = 0),
    else from solving those cells.  A label change gives one BoundarySample:
    at g_t when leaving SP, otherwise at g_c with phase_above SP whenever the
    window is open, even when it is narrower than the grid step.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    zeta = float(zeta)
    params = spec.params_at(0.0, zeta)
    g_c = critical_coupling(params)
    g_t = math.inf
    if zeta > 0.0:
        try:
            g_t = turning_point(params, zeta=zeta, config=cfg)
        except NotFound:
            g_t = g_c

    gs = spec.g_grid()
    index = np.where(gs < g_t, 1, 2)  # the label above g_c
    index[gs < g_c] = 0
    # twice as wide as the marginal band; a g whose square overflows is far outside it
    with np.errstate(over="ignore"):
        near = np.flatnonzero(np.abs(spec.omega - gs * gs / spec.omega_a) <= cfg.tol_curv)
    if near.size:
        rows = param_rows(params, gs[near])
        # a NaN curvature (zeta^2 overflows) is marginal, as in branch_points
        near = near[~(np.abs(curvature(rows, SpinBranch.NORMAL, 0.0)) > cfg.tol_curv)]
        minimum = is_minimum(params, SpinBranch.NORMAL, gs[near], np.zeros(near.size))
        index[near[minimum]] = 0
        rest = near[~minimum]
        if rest.size:
            index[rest] = COLUMN_PHASE[solve_ground(params, gs[rest], cfg)[0]]

    boundaries = []
    for i in np.flatnonzero(index[:-1] != index[1:]).tolist():
        below, above = PHASES[index[i]], PHASES[index[i + 1]]
        if below is PhaseLabel.SP:
            g_b = g_t
        else:
            g_b, above = g_c, (PhaseLabel.SP if g_t > g_c else above)
        boundaries.append(BoundarySample(zeta=zeta, g_refined=g_b,
                                         phase_below=below, phase_above=above))
    return index, boundaries


def phase_grid(spec: GridSpec, config: SolverConfig | None = None) -> PhaseGrid:
    """Label every grid cell by its ground-state phase.

    Cells are ordered by (zeta, g).  Wherever the label changes between two
    g-adjacent cells, the exact boundary (g_c or g_t) is a BoundarySample.
    """
    gs, zetas = spec.g_grid(), spec.zeta_grid()
    rows = [grid_row(spec, zeta, config) for zeta in zetas]
    return PhaseGrid(g=np.tile(gs, zetas.size), zeta=np.repeat(zetas, gs.size),
                     phase=np.concatenate([index for index, _ in rows]),
                     boundaries=tuple(b for _, bounds in rows for b in bounds))


def boundary_trace(spec: GridSpec, config: SolverConfig | None = None) -> list[BoundaryRow]:
    """(zeta, g_c, g_t) rows over the zeta grid; g_t is None where absent.

    g_c does not depend on zeta or omega_b; g_t comes from the fold search
    and is absent for zeta = 0 and beyond the closure coupling.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    params = spec.params_at(0.0, 0.0)
    g_c = critical_coupling(params)
    rows: list[BoundaryRow] = []
    for zeta in spec.zeta_grid():
        try:
            g_t: float | None = turning_point(params, zeta=float(zeta), config=cfg)
        except NotFound:
            g_t = None
        rows.append(BoundaryRow(zeta=float(zeta), g_c=g_c, g_t=g_t))
    return rows
