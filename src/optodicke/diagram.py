"""Parameter sweeps and phase-diagram grids, emitted as plain data tables.

A sweep solves all its g points in one array pass per branch.  A phase grid
needs only the two closed-form boundaries of each zeta row, g_c and the
fold g_t, and labels its cells by comparing g with them; its boundaries are
those exact couplings.  Rows come back in grid order.  No file I/O happens
here, the CLI layer owns serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import ModelParams, Observables, PhaseLabel, SpinBranch, Stability, observable_terms
from .solver import (
    DEFAULT_CONFIG,
    NotFound,
    SolverConfig,
    _is_local_minimum,
    branch_points,
    critical_coupling,
    ground_state,
    root_set,
    select_ground,
    turning_point,
    zero_photon_point,
)

__all__ = [
    "SweepSpec",
    "GridSpec",
    "BranchEntry",
    "SweepRow",
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

# Grid labels in the order they occur along a zeta row.
_ROW_PHASES = (PhaseLabel.NP_NMINUS, PhaseLabel.SP, PhaseLabel.NP_NPLUS)

# Tag and ground-state label of each column of _sweep_rows; a normal root is
# tagged by its stability.
_COLUMN_TAGS = ("N-", None, None, "N+", "gus+")
_COLUMN_PHASES = (PhaseLabel.NP_NMINUS, PhaseLabel.SP, PhaseLabel.SP, PhaseLabel.NP_NPLUS, None)


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


@dataclass(frozen=True)
class PhaseGrid:
    cells: tuple[GridCell, ...]
    boundaries: tuple[BoundarySample, ...]


@dataclass(frozen=True)
class BoundaryRow:
    zeta: float
    g_c: float
    g_t: float | None


def _sweep_rows(spec: SweepSpec, gs: np.ndarray, config: SolverConfig | None,
                one_point: bool = False) -> list[SweepRow]:
    """Rows of sweep_g, or with one_point every ground state from select_ground."""
    cfg = config if config is not None else DEFAULT_CONFIG
    params = spec.params_at(spec.g_min)
    points = [branch_points(params, branch, gs, cfg) for branch in SpinBranch]
    rows = SimpleNamespace(omega_a=spec.omega_a, omega_b=spec.omega_b, zeta=spec.zeta,
                           g=gs[:, None])
    # Columns N- zero point, normal roots, N+ zero point, inverted root: the
    # candidate order of select_ground.
    cols = [np.hstack(pair) for pair in zip(*(
        (pts.x, pts.energy, pts.stability, *observable_terms(rows, pts.branch, np.sqrt(pts.x)))
        for pts in points))]
    x, energy, stability, n_p, delta_n_a, n_b = cols
    stable = stability == Stability.STABLE
    e_min = np.where(stable, energy, np.inf).min(axis=1, keepdims=True)
    choice = np.argmin(np.where(stable & (energy <= e_min + 1e-12), x, np.inf), axis=1)
    marginal = (stability == Stability.MARGINAL).any(axis=1)

    out = []
    for i, (g, k, row) in enumerate(zip(gs.tolist(), choice.tolist(),
                                        zip(*(c.tolist() for c in cols)))):
        _, energy_i, stability_i, n_p_i, delta_n_a_i, n_b_i = row
        if one_point:
            ground = select_ground(spec.params_at(g), {pts.branch: root_set(pts, i)
                                                       for pts in points}, cfg)
            phase, observables = ground.phase, ground.observables
        elif marginal[i]:
            out.append(sweep_row(spec, g, cfg))
            continue
        else:  # the inverted root is never stable: p decreases on that branch
            phase = _COLUMN_PHASES[k]
            observables = Observables(n_p_i[k], delta_n_a_i[k], n_b_i[k], energy_i[k])
        # BRANCH_TAGS order: p is concave on the normal branch, so its smaller
        # root is the stable one (or marginal, tagged gs- as well)
        entries = tuple(
            BranchEntry(_COLUMN_TAGS[j] or ("gus-" if stab is Stability.UNSTABLE else "gs-"),
                        Observables(n_p_i[j], delta_n_a_i[j], n_b_i[j], energy_i[j]), stab)
            for j in (0, 3, 1, 2, 4) if (stab := stability_i[j]) is not None)
        out.append(SweepRow(g=g, phase=phase, ground=observables, branches=entries))
    return out


def sweep_row(spec: SweepSpec, g: float, config: SolverConfig | None = None) -> SweepRow:
    """One sweep row, its ground state from select_ground, which probes marginal points.

    A module global: callers look it up by name at call time.
    """
    return _sweep_rows(spec, np.array([float(g)]), config, one_point=True)[0]


def sweep_g(spec: SweepSpec, config: SolverConfig | None = None) -> list[SweepRow]:
    """Ground state plus all coexisting branches for each g of the sweep.

    One branch_points call per branch covers the whole grid.  The ground
    state is the lowest-energy stable point, ties within 1e-12 going to the
    smaller amplitude, as in select_ground.  Rows with a marginal point
    (|curvature| <= tol_curv, such as g exactly at g_c) go through sweep_row.
    """
    return _sweep_rows(spec, spec.grid(), config)


def grid_row(spec: GridSpec, zeta: float, config: SolverConfig | None = None
             ) -> tuple[list[GridCell], list[BoundarySample]]:
    """All cells of one zeta row plus the exact boundaries between them.

    NP_Nminus below g_c, SP on (g_c, g_t), NP_Nplus from g_t up; g_t is
    infinite at zeta = 0 and g_c when the window is closed.  Cells where the
    N- zero point is marginal (such as one exactly at g_c) get ground_state's
    label.  A label change gives one BoundarySample: at g_t when leaving SP,
    otherwise at g_c with phase_above SP whenever the window is open, even
    when it is narrower than the grid step.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    zeta = float(zeta)
    g_c = critical_coupling(spec.params_at(0.0, zeta))
    g_t = math.inf
    if zeta > 0.0:
        try:
            g_t = turning_point(spec.params_at(g_c, zeta), zeta=zeta, config=cfg)
        except NotFound:
            g_t = g_c

    gs = spec.g_grid()
    index = np.where(gs < g_t, 1, 2)  # the label above g_c
    index[gs < g_c] = 0
    # Cells where N- is marginal take the solver's label; this prefilter is
    # twice as wide as that band, |curvature| <= tol_curv.
    for i in np.flatnonzero(np.abs(spec.omega - gs * gs / spec.omega_a) <= cfg.tol_curv).tolist():
        params = spec.params_at(float(gs[i]), zeta)
        if zero_photon_point(params, SpinBranch.NORMAL, cfg).stability is not Stability.MARGINAL:
            continue
        if _is_local_minimum(params, SpinBranch.NORMAL, 0.0):
            index[i] = 0  # as in select_ground, whose tie rule favours gamma_bar = 0
        else:
            ground = ground_state(params, cfg)
            index[i] = _ROW_PHASES.index(ground.phase)
    labels = [_ROW_PHASES[i] for i in index.tolist()]
    cells = [GridCell(g=g, zeta=zeta, phase=lab) for g, lab in zip(gs.tolist(), labels)]

    boundaries = []
    for i in np.flatnonzero(index[:-1] != index[1:]).tolist():
        below, above = labels[i], labels[i + 1]
        if below is PhaseLabel.SP:
            g_b = g_t
        else:
            g_b, above = g_c, (PhaseLabel.SP if g_t > g_c else above)
        boundaries.append(BoundarySample(zeta=zeta, g_refined=g_b,
                                         phase_below=below, phase_above=above))
    return cells, boundaries


def phase_grid(spec: GridSpec, config: SolverConfig | None = None) -> PhaseGrid:
    """Label every grid cell by its ground-state phase.

    Cells are ordered by (zeta, g).  Wherever the label changes between two
    g-adjacent cells, the exact boundary (g_c or g_t) is a BoundarySample.
    """
    rows = [grid_row(spec, zeta, config) for zeta in spec.zeta_grid()]
    return PhaseGrid(cells=tuple(c for cells, _ in rows for c in cells),
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
