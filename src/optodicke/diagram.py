"""Parameter sweeps and phase-diagram grids, emitted as plain data tables.

A sweep solves every g point for all its stationary points.  A phase grid
needs only the two closed-form boundaries of each zeta row, g_c and the
fold g_t, and labels its cells by comparing g with them; its boundaries are
those exact couplings.  Rows come back in grid order.  No file I/O happens
here, the CLI layer owns serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, Observables, PhaseLabel, SpinBranch, Stability, observables_at
from .solver import (
    DEFAULT_CONFIG,
    NotFound,
    SolverConfig,
    _is_local_minimum,
    critical_coupling,
    enumerate_stationary_points,
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


def _row_at(params: ModelParams, g: float, config: SolverConfig) -> SweepRow:
    rootsets = enumerate_stationary_points(params, config)
    gs = select_ground(params, rootsets, config)

    entries: list[BranchEntry] = []
    for branch, zero_tag in ((SpinBranch.NORMAL, "N-"), (SpinBranch.INVERTED, "N+")):
        rs = rootsets[branch]
        entries.append(BranchEntry(zero_tag, observables_at(params, rs.zero_point),
                                   rs.zero_point.stability))
        for root in rs.roots:
            if branch is SpinBranch.NORMAL:
                tag = "gus-" if root.stability is Stability.UNSTABLE else "gs-"
            else:
                tag = "gus+"
            entries.append(BranchEntry(tag, observables_at(params, root), root.stability))

    entries.sort(key=lambda e: BRANCH_TAGS.index(e.tag))
    return SweepRow(g=g, phase=gs.phase, ground=gs.observables, branches=tuple(entries))


def sweep_row(spec: SweepSpec, g: float, config: SolverConfig | None = None) -> SweepRow:
    """One sweep row; a module global, so that callers look it up by name."""
    cfg = config if config is not None else DEFAULT_CONFIG
    return _row_at(spec.params_at(g), float(g), cfg)


def sweep_g(spec: SweepSpec, config: SolverConfig | None = None) -> list[SweepRow]:
    """Ground state plus all coexisting branches for each g of the sweep."""
    cfg = config if config is not None else DEFAULT_CONFIG
    return [sweep_row(spec, g, cfg) for g in spec.grid()]


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
            ground = select_ground(params, enumerate_stationary_points(params, cfg), cfg)
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
