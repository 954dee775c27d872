"""Variational ground states and phase diagram of the optomechanical Dicke model.

Spin-coherent-state variational solver for N two-level atoms in a cavity
whose photon number couples to a mechanical oscillator, plus an independent
exact-diagonalization check of the N = 1, zeta = 0 (quantum Rabi) limit.
"""

from .model import (
    ModelParams,
    PhaseLabel,
    SpinBranch,
    Stability,
    curvature,
    extremum_polynomial,
    level_splitting,
    scaled_energy,
    scs_angles,
)
from .solver import (
    NotFound,
    SolverConfig,
    SolverError,
    closure_estimate,
    critical_coupling,
    find_roots,
    ground_state,
    sp_closure,
    turning_point,
)
from .diagram import GridSpec, SweepSpec, phase_grid, sweep_g
from .rabi import (
    ConvergenceFailure,
    RabiParams,
    TridiagonalBlock,
    build_blocks,
    compare_columns,
    ground_energy,
    smallest_eigenvalue,
    variational_energy,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "PhaseLabel", "SpinBranch", "Stability", "curvature",
    "extremum_polynomial", "level_splitting", "scaled_energy", "scs_angles",
    "NotFound", "SolverConfig", "SolverError",
    "closure_estimate", "critical_coupling", "find_roots", "ground_state",
    "sp_closure", "turning_point",
    "GridSpec", "SweepSpec", "phase_grid", "sweep_g",
    "ConvergenceFailure", "RabiParams", "TridiagonalBlock", "build_blocks",
    "compare_columns", "ground_energy", "smallest_eigenvalue", "variational_energy",
]
