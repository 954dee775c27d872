"""Parameter sweeps and phase-diagram grids, as numpy columns in grid order.

sweep_g(params, g) and phase_grid(params, g, zeta) take the couplings as
float arrays, as solver.solve_ground does, and raise ValueError naming g or
zeta if any coupling is negative or not finite.  A sweep solves all its g
points, on both branches, in one array pass.  A phase grid needs only the
two closed-form boundaries of each zeta row, g_c and the fold g_t, and
labels its cells by comparing g with them; its boundaries are those exact
couplings, in four boundary columns.  No file I/O happens here, the CLI
layer owns serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .model import ModelParams, SpinBranch, curvature, observable_terms
from .solver import (
    COLUMN_PHASE,
    MARGINAL_BAND,
    UNSTABLE,
    NotFound,
    couplings,
    critical_coupling,
    is_minimum,
    param_rows,
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

# BRANCH_TAGS index of each point column of a Sweep; an unstable normal root
# takes the next tag, gus-.  p is concave on the normal branch, so its smaller
# root is the stable one (or marginal, tagged gs- as well).
_COLUMN_TAGS = np.array([0, 2, 2, 1, 4])
_NORMAL_ROOTS = np.array([0, 1, 1, 0, 0])
# The branch of each point column of a Sweep, for the model's array forms.
_COLUMN_BRANCH = SimpleNamespace(sign=np.repeat([branch.sign for branch in SpinBranch], [3, 2]))


@dataclass(frozen=True, eq=False)
class Sweep:
    """The columns of sweep_g, row i at coupling g[i].

    Point columns: those of solver.solve_ground, then the inverted root; n_p,
    delta_n_a, n_b and energy NaN where a point is absent.  stability is an
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
    ground, *points = solve_ground(params, gs)
    n_p, delta_n_a, n_b = observable_terms(param_rows(params, gs[:, None]), _COLUMN_BRANCH,
                                           np.sqrt(np.hstack([pts.x for pts in points])))
    stability = np.hstack([pts.stability for pts in points])
    tag = _COLUMN_TAGS + _NORMAL_ROOTS * (stability == UNSTABLE)
    source = np.full(tag.shape, -1)
    for j in range(tag.shape[1]):  # of two normal roots with one tag, the larger
        i = np.flatnonzero(~np.isnan(n_p[:, j]))
        source[i, tag[i, j]] = j
    return Sweep(g=gs, phase=COLUMN_PHASE[ground], ground=ground, n_p=n_p, delta_n_a=delta_n_a,
                 n_b=n_b, energy=np.hstack([pts.energy for pts in points]),
                 stability=stability, source=source)


def sweep_row(params: ModelParams, g: float) -> Sweep:
    """The one-row Sweep at g.  A module global: callers look it up at call time."""
    return sweep_g(params, [float(g)])


def grid_row(params: ModelParams, gs: np.ndarray, zetas
             ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The labels of a block of zeta rows, shape (rows, g), and their exact boundaries.

    gs and zetas are float vectors; params.g and params.zeta are ignored.

    Labels are indices into solver.PHASES: NP_Nminus below g_c, SP on
    (g_c, g_t), NP_Nplus from g_t up; g_t is infinite at zeta = 0 and g_c
    when the window is closed.  A cell where N- is marginal (such as one
    exactly at g_c) takes solve_ground's label: N- where the slope probe shows
    a minimum (its tie rule favours gamma_bar = 0), else from solving those
    cells.  Each label change gives one boundary of PhaseGrid's columns: at
    g_t when leaving SP, otherwise at g_c with the label above SP whenever
    the window is open, even when it is narrower than the grid step.
    """
    g_c = critical_coupling(params)
    g_t = np.full(zetas.size, math.inf)
    for row, zeta in enumerate(zetas.tolist()):
        if zeta > 0.0:
            try:
                g_t[row] = turning_point(params, zeta=zeta)
            except NotFound:
                g_t[row] = g_c

    index = np.where(gs < g_t[:, None], 1, 2)  # the label above g_c
    index[:, gs < g_c] = 0
    # The zero point's curvature depends on g alone, unless zeta^2 overflows
    # (a NaN curvature, marginal as in branch_points): find its band once, twice
    # as wide as the marginal band, then probe every (zeta, g) pair in it at once.
    with np.errstate(all="ignore"):
        near = np.flatnonzero(np.abs(params.omega - gs * gs / params.omega_a) <= MARGINAL_BAND)
        k, i = np.repeat(np.arange(zetas.size), near.size), np.tile(near, zetas.size)
        curv = curvature(param_rows(params, gs[i], zetas[k]), SpinBranch.NORMAL, 0.0)
        marginal = ~(np.abs(curv) > MARGINAL_BAND)
        k, i = k[marginal], i[marginal]
        minimum = is_minimum(params, SpinBranch.NORMAL, gs[i], np.zeros(i.size), zetas[k])
    index[k[minimum], i[minimum]] = 0
    k, i = k[~minimum], i[~minimum]
    for row in np.flatnonzero(np.bincount(k)).tolist():  # np.unique would load numpy.ma
        cols = i[k == row]
        row_params = replace(params, zeta=float(zetas[row]))
        index[row, cols] = COLUMN_PHASE[solve_ground(row_params, gs[cols])[0]]

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
