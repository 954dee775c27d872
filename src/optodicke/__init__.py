"""Variational ground states and phase diagram of the optomechanical Dicke model.

Spin-coherent-state variational solver for N two-level atoms in a cavity
whose photon number couples to a mechanical oscillator, plus an independent
exact-diagonalization check of the N = 1, zeta = 0 (quantum Rabi) limit.

Submodules load on first use (PEP 562): `import optodicke` loads none of
them, and the first use of a name in __all__ imports the submodule that
defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "model": ["ModelParams", "PhaseLabel", "SpinBranch", "Stability", "curvature",
              "extremum_polynomial", "level_splitting", "scaled_energy", "scs_angles"],
    "solver": ["NotFound", "SolverError", "closure_estimate", "critical_coupling",
               "find_roots", "ground_state", "sp_closure", "turning_point"],
    "diagram": ["phase_grid", "sweep_g"],
    "rabi": ["ConvergenceFailure", "compare_columns", "ground_energy"],
}
_SUBMODULES = (*_EXPORTS, "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
