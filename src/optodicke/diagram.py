"""Parameter sweeps and phase-diagram grids, as numpy columns in grid order.

sweep_g(params, g) and phase_grid(params, g, zeta) take the couplings as
float arrays, as solver.solve_ground does, and raise model.InvalidInput (a
ValueError) naming g or zeta if any coupling is negative or not finite.  A
sweep solves all its g points, on both branches, in one array pass, and its
point columns are those of the one solver.BranchPoints table that
solver.solve_ground returns.  A phase grid needs only g_c, closure_estimate
and the fold g_t of each zeta row: it labels its cells by
solver.ground_phases, the phase rule of a sweep, and its boundaries are
those exact couplings, in four boundary columns.  No file I/O happens here,
the CLI layer owns serialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .solver import (
    ABSENT,
    COLUMN_PHASE,
    UNSTABLE,
    NotFound,
    couplings,
    critical_coupling,
    ground_phases,
    solve_ground,
    turning_point,
)

__all__ = [
    "Sweep",
    "PhaseGrid",
    "BRANCH_TAGS",
    "sweep_g",
    "phase_grid",
]

# Branch tags, in emission order: the two zero-photon states, the stable
# superradiant root, and the unstable nonzero roots of either branch.
BRANCH_TAGS = ("N-", "N+", "gs-", "gus-", "gus+")

# The point column of a Sweep that each of BRANCH_TAGS reads.  The smaller
# normal root is gs- while it is stable, and gus- otherwise: a lone root up to
# g_c, where the larger one, always unstable, is absent.
_TAG_COLUMNS = np.array([0, 3, 1, 2, 4])


@dataclass(frozen=True, eq=False)
class Sweep:
    """The columns of sweep_g, row i at coupling g[i].

    Point columns: those of solver.BranchPoints (the N- zero point, the two
    normal roots, the N+ zero point, the inverted root; solver.COLUMN_BRANCH
    gives their signs), n_p, delta_n_a, n_b and energy NaN where a point is absent.  stability is an
    index into solver.STABILITIES, solver.ABSENT where a point is absent.
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


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """The axes g and zeta, the cells' phase in (zeta, g) order, and the boundaries.

    phase[k * g.size + i] is the cell at (zeta[k], g[i]), an index into
    solver.PHASES.  Boundary columns, in (zeta, g) order: zeta, the exact
    coupling (g_c or g_t), and the labels below and above it, also indices
    into solver.PHASES.
    """

    g: np.ndarray
    zeta: np.ndarray
    phase: np.ndarray
    boundary_zeta: np.ndarray
    boundary_g: np.ndarray
    boundary_below: np.ndarray
    boundary_above: np.ndarray


def sweep_g(params: ModelParams, g) -> Sweep:
    """Ground state plus all coexisting branches at each coupling of g, as columns.

    params.g is ignored.  One branch_points call covers both branches on the
    whole grid, and solver.solve_ground picks every ground state by its one rule.
    """
    gs, _ = couplings(params, g)
    ground, pts = solve_ground(params, gs)
    source = np.where(pts.stability[:, _TAG_COLUMNS] != ABSENT, _TAG_COLUMNS, -1)
    source[pts.stability[:, 1] == UNSTABLE, 2:4] = [-1, 1]
    return Sweep(g=gs, phase=COLUMN_PHASE[ground], ground=ground, n_p=pts.n_p,
                 delta_n_a=pts.delta_n_a, n_b=pts.n_b, energy=pts.energy,
                 stability=pts.stability, source=source)


def sweep_row(params: ModelParams, g: float) -> Sweep:
    """The one-row Sweep at g.  A module global: callers look it up at call time."""
    return sweep_g(params, [float(g)])


def grid_row(params: ModelParams, gs: np.ndarray, zetas
             ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The labels of a block of zeta rows, shape (rows, g), and their exact boundaries.

    gs and zetas are float vectors; params.g and params.zeta are ignored.

    Labels are indices into solver.PHASES, by solver.ground_phases: NP_Nminus
    below g_c, SP on (g_c, g_t), NP_Nplus from g_t up, with g_t infinite at
    zeta = 0 and g_c when the window is closed; a cell exactly at g_c is
    NP_Nminus iff zeta <= closure_estimate.  No stationary point is solved.
    Each label change gives one boundary of PhaseGrid's columns: at g_t when
    leaving SP, otherwise at g_c with the label above SP whenever the window
    is open, even when it is narrower than the grid step.
    """
    g_c = critical_coupling(params)
    g_t = np.full(zetas.size, np.inf)
    for row, zeta in enumerate(zetas.tolist()):
        if zeta > 0.0:
            try:
                g_t[row] = turning_point(params, zeta=zeta)
            except NotFound:
                g_t[row] = g_c
    index = ground_phases(params, gs, zetas, g_t)

    k, i = np.nonzero(index[:, :-1] != index[:, 1:])
    below, above = index[k, i], index[k, i + 1]
    leaving_sp = below == 1
    g_b = np.where(leaving_sp, g_t[k], g_c)
    above = np.where(~leaving_sp & (g_t[k] > g_c), 1, above)
    return index, (zetas[k], g_b, below, above)


def phase_grid(params: ModelParams, g, zeta) -> PhaseGrid:
    """Label every cell of the grid g x zeta by its ground-state phase.

    params.g and params.zeta are ignored.  Cells are ordered by (zeta, g).
    Wherever the label changes between two g-adjacent cells, the exact
    boundary (g_c or g_t) is one entry of the boundary columns.
    """
    gs, zetas = couplings(params, g, zeta)
    index, boundaries = grid_row(params, gs, zetas)  # the module global: one pass
    return PhaseGrid(gs, zetas, index.reshape(-1), *boundaries)
