"""Command-line frontend: sweeps, phase diagrams, critical points, Rabi check.

Subcommands: roots | sweep | phase-diagram | turning-point | sp-closure |
rabi-compare.  Data goes to stdout or --output as CSV or JSON, diagnostics
to stderr.  Exit codes: 0 success, 2 invalid input, 3 solver failure.
Numeric output is fixed at 9 significant digits and runs are deterministic,
in one process.  OPTODICKE_WORKERS has no effect; sweep, phase-diagram and
rabi-compare still reject a non-integer value.  Grid counts, phase-diagram
cell counts and --n-max are capped (exit 2 above the cap).  A grid
'min:max:count' is np.linspace(min, max, count); sweep and phase-diagram
need one (not a bare number).  A command checks its grid's two ends before
the solve, through ModelParams and, in rabi-compare, the ED's domain check:
an invalid coupling is exit 2, and a ValueError raised by a solve is not
taken for invalid input.  A command returns its
columns, each a float array or (codes, table), and every distinct value or
label is formatted once per output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from . import diagram
from .model import ModelParams, SpinBranch, observable_terms
from .solver import (
    ABSENT,
    PHASES,
    STABILITIES,
    OutOfRange,
    SolverConfig,
    SolverError,
    closure_estimate,
    critical_coupling,
    find_roots,
    sp_closure,
    turning_point,
)

UNITS_NOTE = "all quantities in units of omega_a"

_RANGE_SEP = ":"

# Input caps, checked before any grid is allocated: points of one grid axis,
# cells of a phase diagram, and the Fock truncation of rabi-compare.
MAX_GRID_COUNT = 100_000
MAX_GRID_CELLS = 1_000_000
MAX_N_MAX = 100_000

# Cavity frequencies of rabi-compare --detuning: red, resonant and blue.
DETUNING_PRESETS = {"red": 0.8, "resonant": 1.0, "blue": 1.2}


class ConfigError(Exception):
    """Invalid CLI/config input; mapped to exit code 2."""


@dataclass
class RunConfig:
    """Effective settings after merging defaults, config file and flags."""

    omega: float = 1.0
    omega_a: float = 1.0
    omega_b: float = 10.0
    n_atoms: int = 1
    zeta: str = "0"
    g: str = "0"
    n_max: int = 300
    width_tol: float = 1e-3
    tol_curv: float = 1e-9
    output: str = "-"
    format: str = "csv"


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_NUMERIC_KEYS = _CONFIG_KEYS - {"zeta", "g", "output", "format", "n_atoms", "n_max"}
_INT_KEYS = {"n_atoms", "n_max"}


def load_config(path: str) -> dict:
    """Read a JSON config file; unknown keys and malformed values are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    out: dict = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r} in {path!r}")
        out[key] = _coerce(key, value, where=f"{path}:{key}")
    return out


def _coerce(key: str, value, where: str):
    try:
        if key in _INT_KEYS:
            if int(value) != float(value):
                raise ValueError("not an integer")
            return int(value)
        if key in _NUMERIC_KEYS:
            return float(value)
        if key == "format":
            text = str(value)
            if text not in ("csv", "json"):
                raise ValueError("format must be 'csv' or 'json'")
            return text
        return str(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: float(10**400)
        raise ConfigError(f"bad value for {where}: {exc}") from exc


def _parse_scalar(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"--{name} expects a number, got {text!r}") from exc


def _parse_range(text: str, name: str) -> tuple[float, float, int]:
    """Inclusive grid 'min:max:count' as (min, max, count); a bare number is (v, v, 1)."""
    if _RANGE_SEP not in text:
        value = _parse_scalar(text, name)
        if not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite, got {text!r}")
        return value, value, 1
    parts = text.split(_RANGE_SEP)
    if len(parts) != 3:
        raise ConfigError(f"--{name} expects min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--{name} expects min:max:count, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"--{name}: grid ends must be finite, got {text!r}")
    if count < 2 or not lo < hi:
        raise ConfigError(f"--{name}: need min < max and count >= 2, got {text!r}")
    if count > MAX_GRID_COUNT:
        raise ConfigError(f"--{name}: count {count} exceeds the cap of {MAX_GRID_COUNT}")
    return lo, hi, count


def _axis(cfg: RunConfig, lo: float, hi: float, count: int, name: str) -> np.ndarray:
    """The grid of a range from _parse_range, its two ends checked by ModelParams.

    A bare number (count 1) is no grid.  The grid lies between its ends, so
    checking them checks every point.
    """
    if count < 2:
        raise ConfigError(f"{name}_min must be < {name}_max")
    for end in (lo, hi):
        _model_params(cfg, **{"g": 0.0, "zeta": 0.0, name: end})
    return np.linspace(lo, hi, count)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused by every run."""
    parser = argparse.ArgumentParser(
        prog="optodicke",
        description="Variational phases of atoms in an optomechanical cavity",
    )
    common = argparse.ArgumentParser(add_help=False)
    for flag, kw in (
        ("--omega", dict(type=float, help="cavity frequency (default 1)")),
        ("--omega-a", dict(type=float, dest="omega_a", help="atomic frequency (default 1)")),
        ("--omega-b", dict(type=float, dest="omega_b", help="oscillator frequency (default 10)")),
        ("--n-atoms", dict(type=int, dest="n_atoms", help="atom count N (default 1)")),
        ("--tol-curv", dict(type=float, dest="tol_curv")),
        ("--config", dict(type=str, help="JSON config file; flags override it")),
        ("--output", dict(type=str, short="-o", help="output path, '-' for stdout")),
        ("--format", dict(type=str, choices=["csv", "json"])),
    ):
        short = kw.pop("short", None)
        names = (short, flag) if short else (flag,)
        common.add_argument(*names, default=None, **kw)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common],
                       help="stationary points of both branches at one (g, zeta)")
    p.add_argument("--g", type=str, default=None)
    p.add_argument("--zeta", type=str, default=None)

    p = sub.add_parser("sweep", parents=[common],
                       help="ground state and coexisting branches over a g grid")
    p.add_argument("--g", type=str, default=None, help="grid min:max:count")
    p.add_argument("--zeta", type=str, default=None)

    p = sub.add_parser("phase-diagram", parents=[common],
                       help="phase labels over a (g, zeta) grid, with boundaries")
    p.add_argument("--g", type=str, default=None, help="grid min:max:count")
    p.add_argument("--zeta", type=str, default=None, help="grid min:max:count")

    p = sub.add_parser("turning-point", parents=[common],
                       help="fold coupling g_t where the superradiant roots merge")
    p.add_argument("--zeta", type=str, default=None)

    p = sub.add_parser("sp-closure", parents=[common],
                       help="coupling zeta_star closing the superradiant window")
    p.add_argument("--width-tol", type=float, dest="width_tol", default=None)

    p = sub.add_parser("rabi-compare", parents=[common],
                       help="variational energy vs exact diagonalization (N=1, zeta=0)")
    p.add_argument("--g", type=str, default=None, help="grid min:max:count")
    p.add_argument("--n-max", type=int, dest="n_max", default=None)
    p.add_argument("--detuning", type=str, choices=sorted(DETUNING_PRESETS),
                   default=None, help="cavity-frequency preset; --omega overrides")

    # argparse reads only -5 and -.5 forms as values; here every argument that
    # begins -<digit> or -.<digit>, such as the grid -1:3:5, is a value
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _effective(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config(args.config).items():
            setattr(cfg, key, value)
    if getattr(args, "detuning", None) is not None and getattr(args, "omega", None) is None:
        args.omega = DETUNING_PRESETS[args.detuning]
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, _coerce(key, value, where=f"--{key.replace('_', '-')}"))
    return cfg


def _model_params(cfg: RunConfig, g: float, zeta: float) -> ModelParams:
    try:
        return ModelParams(omega=cfg.omega, omega_a=cfg.omega_a, omega_b=cfg.omega_b,
                           g=g, zeta=zeta, n_atoms=cfg.n_atoms)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _solver_config(cfg: RunConfig) -> SolverConfig:
    try:
        return SolverConfig(tol_curv=cfg.tol_curv)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_workers() -> None:
    """OPTODICKE_WORKERS has no effect, but a non-integer value is invalid input."""
    text = os.environ.get("OPTODICKE_WORKERS", "1") or "1"
    try:
        int(text)
    except ValueError as exc:
        raise ConfigError(f"OPTODICKE_WORKERS must be an integer, got {text!r}") from exc


def _json_number(value: float) -> str:
    """The JSON number json.dumps writes for a float, not NaN, at 9 significant digits."""
    number = float(f"{value:.9g}")  # json.dumps writes a finite float as its repr
    return repr(number) if math.isfinite(number) else json.dumps(number)


def _fields(columns: list, json_text: bool = False) -> list[list[str]]:
    """Each column as CSV fields, or as JSON values if json_text.

    A column is a float array or (codes, table), whose i-th value is
    table[codes[i]]; a table is a float array or a sequence of labels.  Each
    table entry is written once.  Floats take 9 significant digits, NaN is
    absent, and each distinct bit pattern over all float columns and tables
    is formatted once; patterns, not values, so that -0.0 keeps its sign.  A
    label is a string or an Enum member (written as its value); None is
    absent: '' in CSV, null in JSON.
    """
    coded = [(slice(None), c) if isinstance(c, np.ndarray) else c for c in columns]
    floats = [table for _, table in coded if isinstance(table, np.ndarray)]
    stacked = np.concatenate(floats) if floats else np.empty(0)
    _, first, inverse = np.unique(stacked.view(np.int64), return_index=True, return_inverse=True)
    values, absent = stacked[first], "null" if json_text else ""
    text = np.array(list(map(_json_number, values.tolist()) if json_text else
                         map(float.__format__, values.tolist(), repeat(".9g"))), dtype=object)
    text[np.isnan(values)] = absent
    pieces = iter(np.split(text[inverse], np.cumsum([t.size for t in floats])[:-1]))
    label = json.dumps if json_text else str
    out = []
    for codes, table in coded:
        table = next(pieces) if isinstance(table, np.ndarray) else np.array(
            [absent if v is None else label(getattr(v, "value", v)) for v in table], dtype=object)
        out.append(table[codes].tolist())
    return out


def _emit(cfg: RunConfig, fieldnames: list[str], columns: list) -> None:
    """Write columns, one per field name, as CSV or JSON.

    A column is a float array (NaN where a value is absent) or (codes, table),
    formatted by _fields.  Absent values are empty CSV fields and JSON nulls.
    The JSON text is that of json.dumps(payload, indent=2), written directly.
    """
    if cfg.format == "json":
        keys = [f"      {json.dumps(name)}: " for name in fieldnames]
        rows = ["    {\n" + ",\n".join(map(str.__add__, keys, row)) + "\n    }"
                for row in zip(*_fields(columns, json_text=True))]
        body = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        text = f'{{\n  "units": {json.dumps(UNITS_NOTE)},\n  "rows": {body}\n}}\n'
    else:
        text = "\r\n".join([f"# {UNITS_NOTE}", ",".join(fieldnames),
                             *map(",".join, zip(*_fields(columns)))]) + "\r\n"
    if cfg.output == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_roots(cfg: RunConfig) -> tuple[list[str], list]:
    params = _model_params(cfg, _parse_scalar(cfg.g, "g"), _parse_scalar(cfg.zeta, "zeta"))
    parts = []  # per branch: its present points, as the columns below
    for code, pts in enumerate(find_roots(params, _solver_config(cfg))):  # in SpinBranch order
        present = pts.stability[0] != ABSENT
        gamma_bar = np.sqrt(pts.x[0, present])
        parts.append([np.full(gamma_bar.size, code), gamma_bar,
                      *observable_terms(params, pts.branch, gamma_bar), pts.energy[0, present],
                      pts.curvature[0, present], pts.stability[0, present]])
    names = ["branch", "gamma_bar", "np", "delta_na", "nb", "energy", "curvature", "stability"]
    branch, *numbers, stability = map(np.concatenate, zip(*parts))
    return names, [(branch, [b.name.lower() for b in SpinBranch]), *numbers,
                   (stability, STABILITIES)]


_SWEEP_FIELDS = ["g", "phase", "np_ground", "dna_ground", "nb_ground", "eps_ground"] + [
    f"{kind}_{tag}" for tag in diagram.BRANCH_TAGS for kind in ("np", "eps", "stability")]


def _cmd_sweep(cfg: RunConfig) -> tuple[list[str], list]:
    g_range = _parse_range(cfg.g, "g")
    params = _model_params(cfg, 0.0, _parse_scalar(cfg.zeta, "zeta"))
    g = _axis(cfg, *g_range, "g")
    _check_workers()
    sweep = diagram.sweep_g(params, g, _solver_config(cfg))
    rows, k = np.arange(sweep.g.size), sweep.ground
    columns = [sweep.g, (sweep.phase, PHASES), sweep.n_p[rows, k],
               sweep.delta_n_a[rows, k], sweep.n_b[rows, k], sweep.energy[rows, k]]
    for j in sweep.source.T:
        found = j >= 0
        columns += [np.where(found, sweep.n_p[rows, j], np.nan),
                    np.where(found, sweep.energy[rows, j], np.nan),
                    (np.where(found, sweep.stability[rows, j], ABSENT), STABILITIES)]
    return list(_SWEEP_FIELDS), columns


def _cmd_phase_diagram(cfg: RunConfig) -> tuple[list[str], list]:
    g_range, zeta_range = _parse_range(cfg.g, "g"), _parse_range(cfg.zeta, "zeta")
    g_steps, zeta_steps = g_range[2], zeta_range[2]
    if g_steps * zeta_steps > MAX_GRID_CELLS:
        raise ConfigError(f"{g_steps} x {zeta_steps} = {g_steps * zeta_steps} cells exceed "
                          f"the cap of {MAX_GRID_CELLS}")
    params = _model_params(cfg, 0.0, 0.0)
    g, zeta = _axis(cfg, *g_range, "g"), _axis(cfg, *zeta_range, "zeta")
    _check_workers()
    grid = diagram.phase_grid(params, g, zeta, _solver_config(cfg))
    # cells are in (zeta, g) order: code both axes by row and column, boundaries appended
    row, col = np.divmod(np.arange(grid.phase.size), g_steps)
    bound = np.arange(grid.boundary_g.size)
    axes = [(np.concatenate([cell, axis.size + bound]), np.concatenate([axis, values]))
            for cell, axis, values in ((row, grid.zeta, grid.boundary_zeta),
                                       (col, grid.g, grid.boundary_g))]
    columns = [(np.repeat([0, 1], [row.size, bound.size]), ["cell", "boundary"]), *axes,
               (np.concatenate([grid.phase, grid.boundary_below]), PHASES),
               (np.concatenate([np.zeros(row.size, int), grid.boundary_above + 1]),
                (None, *PHASES))]
    return ["kind", "zeta", "g", "phase", "phase_above"], columns


def _cmd_turning_point(cfg: RunConfig) -> tuple[list[str], list]:
    zeta = _parse_scalar(cfg.zeta, "zeta")
    if zeta < 0.0:
        raise ConfigError("zeta must be >= 0")
    params = _model_params(cfg, 0.0, zeta)
    _solver_config(cfg)  # unused by the closed form, but a bad --tol-curv is invalid input
    g_t = turning_point(params, zeta=zeta)
    if math.isinf(g_t):
        raise OutOfRange(f"zeta={zeta!r}: the fold coupling g_t exceeds the largest double")
    return ["zeta", "g_c", "g_t"], [np.array([v]) for v in (zeta, critical_coupling(params), g_t)]


def _cmd_sp_closure(cfg: RunConfig) -> tuple[list[str], list]:
    if not (math.isfinite(cfg.width_tol) and cfg.width_tol > 0.0):
        raise ConfigError(f"--width-tol must be finite and > 0, got {cfg.width_tol!r}")
    params = _model_params(cfg, 0.0, 0.0)
    _solver_config(cfg)  # unused by the closed form, but a bad --tol-curv is invalid input
    star = sp_closure(params, width_tol=cfg.width_tol)
    row = (star, closure_estimate(params), cfg.width_tol, critical_coupling(params))
    return ["zeta_star", "zeta_estimate", "width_tol", "g_c"], [np.array([v]) for v in row]


def _cmd_rabi_compare(cfg: RunConfig) -> tuple[list[str], list]:
    from . import rabi  # the ED: only this command loads it

    if not 2 <= cfg.n_max <= MAX_N_MAX:
        raise ConfigError(f"n_max must be in [2, {MAX_N_MAX}], got {cfg.n_max}")
    _solver_config(cfg)  # unused by the ED, but a bad --tol-curv is invalid input
    g_min, g_max, count = _parse_range(cfg.g, "g")
    params = _model_params(cfg, 0.0, zeta=0.0)
    try:  # the grid lies between its ends, so checking them checks every point
        rabi.ed_couplings(params, [g_min, g_max])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_workers()
    columns = rabi.compare_columns(params, np.linspace(g_min, g_max, count), n_max=cfg.n_max)
    return ["g", "energy_ed", "energy_variational", "deviation"], list(columns)


_COMMANDS = {
    "roots": _cmd_roots,
    "sweep": _cmd_sweep,
    "phase-diagram": _cmd_phase_diagram,
    "turning-point": _cmd_turning_point,
    "sp-closure": _cmd_sp_closure,
    "rabi-compare": _cmd_rabi_compare,
}


def run(argv=None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = _effective(args)
        fieldnames, columns = _COMMANDS[args.command](cfg)
    except (ConfigError, OutOfRange) as exc:
        print(f"optodicke: invalid input: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:  # NotFound, rabi.ConvergenceFailure
        print(f"optodicke: solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    try:
        _emit(cfg, fieldnames, columns)
    except OSError as exc:
        print(f"optodicke: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
