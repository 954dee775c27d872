"""Command-line frontend: sweeps, phase diagrams, critical points, Rabi check.

Subcommands: roots | sweep | phase-diagram | turning-point | sp-closure |
rabi-compare.  Data goes to stdout or --output as CSV or JSON, diagnostics
to stderr.  Exit codes: 0 success, 2 invalid input, 3 solver failure.
Numeric output is fixed at 9 significant digits and runs are deterministic,
in one process.  One argparse parser reads every input.  A --config file
entry key: value is read as the flag --key-with-dashes=value (a string as
itself, any other JSON value as its json.dumps text), placed before the
command line's flags, so a flag overrides the file and a key that is no
flag of the command is invalid input.  Before any command runs, _parse
checks what all of them share: ModelParams (at g = zeta = 0) and
OPTODICKE_WORKERS, which has no effect but must be an integer.  Grid
counts, phase-diagram cell counts and --n-max are capped (exit 2 above the
cap).  A grid 'min:max:count' is np.linspace(min, max, count); sweep and
phase-diagram need one (not a bare number).  A command checks its g or zeta,
or its grid's two ends, before the solve, through ModelParams and, in
rabi-compare, the ED's domain check: an invalid coupling is exit 2, and a
ValueError raised by a solve is not taken for invalid input.  A command
returns its columns, each a float array or (codes, table), and every
distinct value or label is formatted once per output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import replace
from itertools import repeat

import numpy as np

from . import diagram
from .model import ModelParams, SpinBranch, observable_terms
from .solver import (
    ABSENT,
    PHASES,
    STABILITIES,
    OutOfRange,
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


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), whose ValueError (a rejected input) is raised as ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _config_flags(path: str, command: argparse.ArgumentParser) -> list[str]:
    """A JSON config file's entries as flags of the command's parser.

    key: value is --key-with-dashes=text, text the value itself if it is a
    string and its json.dumps otherwise.  A key that no flag of the command
    stores (config itself included) is rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also non-UTF-8 bytes, long ints, deep nesting
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    keys = {a.dest for a in command._actions if a.option_strings} - {"help", "config"}
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r} in {path!r}")
    return [f"--{key.replace('_', '-')}=" + (value if isinstance(value, str) else json.dumps(value))
            for key, value in raw.items()]


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


def _axis(params: ModelParams, lo: float, hi: float, count: int, name: str) -> np.ndarray:
    """The grid of a range from _parse_range, its two ends checked by ModelParams.

    A bare number (count 1) is no grid.  The grid lies between its ends, so
    checking them checks every point.
    """
    if count < 2:
        raise ConfigError(f"{name}_min must be < {name}_max")
    for end in (lo, hi):
        _checked(replace, params, **{name: end})
    return np.linspace(lo, hi, count)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused by every run.

    parser.commands maps each command name to its own parser.
    """
    parser = argparse.ArgumentParser(
        prog="optodicke",
        description="Variational phases of atoms in an optomechanical cavity",
    )
    common = argparse.ArgumentParser(add_help=False)
    for flag, kw in (
        ("--omega", dict(type=float, help="cavity frequency (default 1)")),
        ("--omega-a", dict(type=float, default=1.0, help="atomic frequency (default 1)")),
        ("--omega-b", dict(type=float, default=10.0, help="oscillator frequency (default 10)")),
        ("--n-atoms", dict(type=int, default=1, help="atom count N (default 1)")),
        ("--config", dict(help="JSON config file; flags override it")),
        ("--output", dict(short="-o", default="-", help="output path, '-' for stdout")),
        ("--format", dict(choices=["csv", "json"], default="csv")),
    ):
        short = kw.pop("short", None)
        common.add_argument(*((short, flag) if short else (flag,)), **kw)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common],
                       help="stationary points of both branches at one (g, zeta)")
    p.add_argument("--g", default="0")
    p.add_argument("--zeta", default="0")

    p = sub.add_parser("sweep", parents=[common],
                       help="ground state and coexisting branches over a g grid")
    p.add_argument("--g", default="0", help="grid min:max:count")
    p.add_argument("--zeta", default="0")

    p = sub.add_parser("phase-diagram", parents=[common],
                       help="phase labels over a (g, zeta) grid, with boundaries")
    p.add_argument("--g", default="0", help="grid min:max:count")
    p.add_argument("--zeta", default="0", help="grid min:max:count")

    p = sub.add_parser("turning-point", parents=[common],
                       help="fold coupling g_t where the superradiant roots merge")
    p.add_argument("--zeta", default="0")

    p = sub.add_parser("sp-closure", parents=[common],
                       help="coupling zeta_star closing the superradiant window")
    p.add_argument("--width-tol", type=float, default=1e-3)

    p = sub.add_parser("rabi-compare", parents=[common],
                       help="variational energy vs exact diagonalization (N=1, zeta=0)")
    p.add_argument("--g", default="0", help="grid min:max:count")
    p.add_argument("--n-max", type=int, default=300)
    p.add_argument("--detuning", choices=sorted(DETUNING_PRESETS),
                   help="cavity-frequency preset; --omega overrides")

    # argparse reads only -5 and -.5 forms as values; here every argument that
    # begins -<digit> or -.<digit>, such as the grid -1:3:5, is a value
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    parser.commands = sub.choices
    return parser


def _parse(argv) -> tuple[argparse.Namespace, ModelParams]:
    """The parsed flags, and the checked ModelParams (g = zeta = 0).

    A --config file's entries go before the command line's flags, so a flag
    overrides them; a file value its flag rejects gets argparse's error and
    a line naming the file.  The cavity frequency is the command line's
    --omega, else its --detuning preset, else the file's omega, else its
    detuning.
    """
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = flags = parser.parse_args(argv)
    if args.config is not None:
        at = argv.index(args.command) + 1
        file_flags = _config_flags(args.config, parser.commands[args.command])
        try:
            args = parser.parse_args([*argv[:at], *file_flags, *argv[at:]])
        except SystemExit as exc:  # the command line alone parsed: the file is at fault
            raise ConfigError(f"the error above is in config file {args.config!r}") from exc
    omega = next((w for layer in (flags, args)
                  for w in (layer.omega, DETUNING_PRESETS.get(getattr(layer, "detuning", None)))
                  if w is not None), 1.0)
    params = _checked(ModelParams, omega=omega, omega_a=args.omega_a, omega_b=args.omega_b,
                      n_atoms=args.n_atoms)
    workers = os.environ.get("OPTODICKE_WORKERS", "1") or "1"  # no effect, but checked
    try:
        int(workers)
    except ValueError as exc:
        raise ConfigError(f"OPTODICKE_WORKERS must be an integer, got {workers!r}") from exc
    return args, params


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


def _emit(args: argparse.Namespace, fieldnames: list[str], columns: list) -> None:
    """Write columns, one per field name, as CSV or JSON (args.format) to args.output.

    A column is a float array (NaN where a value is absent) or (codes, table),
    formatted by _fields.  Absent values are empty CSV fields and JSON nulls.
    The JSON text is that of json.dumps(payload, indent=2), written directly:
    each row fills one template of the field names.
    """
    if args.format == "json":
        names = (json.dumps(name).replace("{", "{{").replace("}", "}}") for name in fieldnames)
        row = "    {{\n" + ",\n".join(f"      {name}: {{}}" for name in names) + "\n    }}"
        rows = ",\n".join(map(row.format, *_fields(columns, json_text=True)))
        body = f"[\n{rows}\n  ]" if rows else "[]"
        text = f'{{\n  "units": {json.dumps(UNITS_NOTE)},\n  "rows": {body}\n}}\n'
    else:
        text = "\r\n".join([f"# {UNITS_NOTE}", ",".join(fieldnames),
                             *map(",".join, zip(*_fields(columns)))]) + "\r\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_roots(args, params: ModelParams) -> tuple[list[str], list]:
    params = _checked(replace, params, g=_parse_scalar(args.g, "g"),
                      zeta=_parse_scalar(args.zeta, "zeta"))
    parts = []  # per branch: its present points, as the columns below
    for code, pts in enumerate(find_roots(params)):  # in SpinBranch order
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


def _cmd_sweep(args, params: ModelParams) -> tuple[list[str], list]:
    g_range = _parse_range(args.g, "g")
    params = _checked(replace, params, zeta=_parse_scalar(args.zeta, "zeta"))
    sweep = diagram.sweep_g(params, _axis(params, *g_range, "g"))
    rows, k = np.arange(sweep.g.size), sweep.ground
    columns = [sweep.g, (sweep.phase, PHASES), sweep.n_p[rows, k],
               sweep.delta_n_a[rows, k], sweep.n_b[rows, k], sweep.energy[rows, k]]
    for j in sweep.source.T:
        found = j >= 0
        columns += [np.where(found, sweep.n_p[rows, j], np.nan),
                    np.where(found, sweep.energy[rows, j], np.nan),
                    (np.where(found, sweep.stability[rows, j], ABSENT), STABILITIES)]
    return list(_SWEEP_FIELDS), columns


def _cmd_phase_diagram(args, params: ModelParams) -> tuple[list[str], list]:
    g_range, zeta_range = _parse_range(args.g, "g"), _parse_range(args.zeta, "zeta")
    g_steps, zeta_steps = g_range[2], zeta_range[2]
    if g_steps * zeta_steps > MAX_GRID_CELLS:
        raise ConfigError(f"{g_steps} x {zeta_steps} = {g_steps * zeta_steps} cells exceed "
                          f"the cap of {MAX_GRID_CELLS}")
    g, zeta = _axis(params, *g_range, "g"), _axis(params, *zeta_range, "zeta")
    grid = diagram.phase_grid(params, g, zeta)
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


def _cmd_turning_point(args, params: ModelParams) -> tuple[list[str], list]:
    zeta = _parse_scalar(args.zeta, "zeta")
    params = _checked(replace, params, zeta=zeta)
    g_t = turning_point(params)
    if math.isinf(g_t):
        raise OutOfRange(f"zeta={zeta!r}: the fold coupling g_t exceeds the largest double")
    return ["zeta", "g_c", "g_t"], [np.array([v]) for v in (zeta, critical_coupling(params), g_t)]


def _cmd_sp_closure(args, params: ModelParams) -> tuple[list[str], list]:
    if not (math.isfinite(args.width_tol) and args.width_tol > 0.0):
        raise ConfigError(f"--width-tol must be finite and > 0, got {args.width_tol!r}")
    star = sp_closure(params, width_tol=args.width_tol)
    row = (star, closure_estimate(params), args.width_tol, critical_coupling(params))
    return ["zeta_star", "zeta_estimate", "width_tol", "g_c"], [np.array([v]) for v in row]


def _cmd_rabi_compare(args, params: ModelParams) -> tuple[list[str], list]:
    from . import rabi  # the ED: only this command loads it

    if not 2 <= args.n_max <= MAX_N_MAX:
        raise ConfigError(f"n_max must be in [2, {MAX_N_MAX}], got {args.n_max}")
    g_min, g_max, count = _parse_range(args.g, "g")
    # the grid lies between its ends, so checking them checks every point
    _checked(rabi.ed_couplings, params, [g_min, g_max])
    columns = rabi.compare_columns(params, np.linspace(g_min, g_max, count), n_max=args.n_max)
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
    try:
        args, params = _parse(argv)
        fieldnames, columns = _COMMANDS[args.command](args, params)
    except SystemExit as exc:  # argparse: a usage error, or --help
        return int(exc.code or 0)
    except (ConfigError, OutOfRange) as exc:
        print(f"optodicke: invalid input: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:  # NotFound, rabi.ConvergenceFailure
        print(f"optodicke: solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    try:
        _emit(args, fieldnames, columns)
    except OSError as exc:
        print(f"optodicke: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
