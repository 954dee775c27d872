"""Command-line frontend: sweeps, phase diagrams, critical points, Rabi check.

Subcommands: roots | sweep | phase-diagram | turning-point | sp-closure |
rabi-compare.  Data goes to stdout or --output as CSV or JSON, diagnostics
to stderr.  Exit codes: 0 success, 2 invalid input, 3 solver failure.
Numeric output is fixed at 9 significant digits and runs are deterministic,
in one process.  One argparse parser reads and types every input: a --config
file entry key: value is read as the flag --key-with-dashes=value (a string
as itself, any other JSON value as its json.dumps text), placed before the
command line's flags, so a flag overrides the file and a key that is no flag
of the command is invalid input.  Before any command runs, _parse checks
what all of them share: ModelParams (at g = zeta = 0) and OPTODICKE_WORKERS,
which has no effect but must be an integer.  Grid counts, phase-diagram cell
counts and --n-max are capped (exit 2 above the cap).  A grid
'min:max:count' is np.linspace(min, max, count); sweep and phase-diagram
need one (not a bare number).  Before the solve, a command checks its
couplings, or its grid's two ends, through ModelParams (rabi-compare: inside
rabi.compare_columns, by the ED's domain check).  Every input check, here or
in the library, raises model.InvalidInput (a ValueError); run() maps it and
OutOfRange to exit 2, and any other exception from a solve propagates.  A
command returns its columns, each a float array or (codes, table), and _emit
writes them with one join over field texts that carry their separators: a
label once per table entry, each distinct float once per set of separators.
turning-point and sp-closure, from model's closed forms, return one row of
Python floats instead: they, and importing this module, load no numpy.  The
other commands import numpy, diagram and solver when they run, and
find_roots (solver's, which roots calls) binds here on first use (PEP 562).
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

from .model import (InvalidInput, ModelParams, OutOfRange, SolverError, SpinBranch,
                    closure_estimate, critical_coupling, sp_closure, turning_point)

UNITS_NOTE = "all quantities in units of omega_a"

_RANGE_SEP = ":"

# Input caps, checked before any grid is allocated: points of one grid axis,
# cells of a phase diagram, and the Fock truncation of rabi-compare.
MAX_GRID_COUNT = 100_000
MAX_GRID_CELLS = 1_000_000
MAX_N_MAX = 100_000

# Cavity frequencies of rabi-compare --detuning: red, resonant and blue.
DETUNING_PRESETS = {"red": 0.8, "resonant": 1.0, "blue": 1.2}


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
        raise InvalidInput(f"cannot read config file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also non-UTF-8 bytes, long ints, deep nesting
        raise InvalidInput(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidInput(f"config file {path!r} must hold a JSON object")
    keys = {a.dest for a in command._actions if a.option_strings} - {"help", "config"}
    for key in raw:
        if key not in keys:
            raise InvalidInput(f"unknown config key {key!r} in {path!r}")
    return [f"--{key.replace('_', '-')}=" + (value if isinstance(value, str) else json.dumps(value))
            for key, value in raw.items()]


def _grid(text: str) -> tuple[float, float, int]:
    """argparse type of a grid 'min:max:count' as (min, max, count); a number v is (v, v, 1)."""
    is_grid = _RANGE_SEP in text
    try:
        lo, hi, count = text.split(_RANGE_SEP) if is_grid else (text, text, "1")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:  # also a grid of other than three parts
        raise argparse.ArgumentTypeError(
            f"expects min:max:count or a number, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"grid ends must be finite, got {text!r}")
    if is_grid and (count < 2 or not lo < hi):
        raise argparse.ArgumentTypeError(f"need min < max and count >= 2, got {text!r}")
    if count > MAX_GRID_COUNT:
        raise argparse.ArgumentTypeError(f"count {count} exceeds the cap of {MAX_GRID_COUNT}")
    return lo, hi, count


def _bounded(kind, valid, message: str):
    """argparse type: kind(text), rejected with message.format(value) unless valid(value)."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(message.format(value))
        return value
    return convert


def _axis(params: ModelParams, lo: float, hi: float, count: int, name: str):
    """The grid of a range from _grid (an ndarray), its two ends checked by ModelParams.

    A bare number (count 1) is no grid.  The grid lies between its ends, so
    checking them checks every point.
    """
    import numpy as np
    if count < 2:
        raise InvalidInput(f"{name}_min must be < {name}_max")
    for end in (lo, hi):
        ModelParams(**{**vars(params), name: end})
    with np.errstate(all="ignore"):  # k*step may overflow at the last point, which is set to hi
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
    p.add_argument("--g", type=float, default=0.0, help="coupling, a number")
    p.add_argument("--zeta", type=float, default=0.0, help="coupling, a number")

    p = sub.add_parser("sweep", parents=[common],
                       help="ground state and coexisting branches over a g grid")
    p.add_argument("--g", type=_grid, default="0", help="grid min:max:count")
    p.add_argument("--zeta", type=float, default=0.0, help="coupling, a number")

    p = sub.add_parser("phase-diagram", parents=[common],
                       help="phase labels over a (g, zeta) grid, with boundaries")
    p.add_argument("--g", type=_grid, default="0", help="grid min:max:count")
    p.add_argument("--zeta", type=_grid, default="0", help="grid min:max:count")

    p = sub.add_parser("turning-point", parents=[common],
                       help="fold coupling g_t where the superradiant roots merge")
    p.add_argument("--zeta", type=float, default=0.0, help="coupling, a number")

    p = sub.add_parser("sp-closure", parents=[common],
                       help="coupling zeta_star closing the superradiant window")
    p.add_argument("--width-tol", default=1e-3, type=_bounded(
        float, lambda tol: math.isfinite(tol) and tol > 0.0,
        "--width-tol must be finite and > 0, got {!r}"))

    p = sub.add_parser("rabi-compare", parents=[common],
                       help="variational energy vs exact diagonalization (N=1, zeta=0)")
    p.add_argument("--g", type=_grid, default="0", help="a number, or grid min:max:count")
    p.add_argument("--n-max", default=300, type=_bounded(
        int, lambda n: 2 <= n <= MAX_N_MAX, f"n_max must be in [2, {MAX_N_MAX}], got {{}}"))
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
            raise InvalidInput(f"the error above is in config file {args.config!r}") from exc
    omega = next((w for layer in (flags, args)
                  for w in (layer.omega, DETUNING_PRESETS.get(getattr(layer, "detuning", None)))
                  if w is not None), 1.0)
    params = ModelParams(omega=omega, omega_a=args.omega_a, omega_b=args.omega_b,
                         n_atoms=args.n_atoms)
    workers = os.environ.get("OPTODICKE_WORKERS", "1") or "1"  # no effect, but checked
    try:
        int(workers)
    except ValueError as exc:
        raise InvalidInput(f"OPTODICKE_WORKERS must be an integer, got {workers!r}") from exc
    return args, params


def _emit(args: argparse.Namespace, fieldnames: list[str], columns: list | tuple) -> None:
    """Write columns, one per field name, as CSV or JSON (args.format) to args.output.

    columns is one row of Python floats (a tuple), written without numpy as
    _columns_text writes one-element arrays, or a list for _columns_text.
    """
    if not isinstance(columns, tuple):
        text = _columns_text(args.format, fieldnames, columns)
    elif args.format == "json":
        row = {name: None if v != v else float("%.9g" % v) for name, v in zip(fieldnames, columns)}
        text = json.dumps({"units": UNITS_NOTE, "rows": [row]}, indent=2) + "\n"
    else:
        text = (f"# {UNITS_NOTE}\r\n{','.join(fieldnames)}\r\n"
                + ",".join("" if v != v else "%.9g" % v for v in columns) + "\r\n")
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _columns_text(fmt: str, fieldnames: list[str], columns: list) -> str:
    """The CSV or JSON (fmt) text of columns, one per field name.

    A column is a float array (NaN where a value is absent) or (codes, table),
    whose i-th value is table[codes[i]]; a table is a float array or a
    sequence of labels: strings, Enum members (written as their values) and
    None (absent).  Absent values are empty CSV fields and JSON nulls.  The
    JSON text is that of json.dumps(payload, indent=2).

    The text is one join over a (rows x columns) index matrix into a table
    of entries, each a field's text with its column's separators: in CSV a
    ',' after it, or CRLF in the last column; in JSON the indented key before
    it and ',\n' or the row's closing brace after it.  A label is one entry
    per table entry.  Floats take 9 significant digits (in JSON the repr of
    that double, as json.dumps writes it).  Float columns of equal separators
    share their entries: one %-format call writes the distinct bit patterns
    they hold (patterns, not values, so that -0.0 keeps its sign).
    """
    import numpy as np
    coded = [(slice(None), c) if isinstance(c, np.ndarray) else c for c in columns]
    floats = [table for _, table in coded if isinstance(table, np.ndarray)]
    stacked = np.concatenate(floats) if floats else np.empty(0)
    bits, _, inverse = np.unique(stacked.view(np.int64), return_index=True, return_inverse=True)
    values = numbers = bits.view(np.float64)
    last = len(columns) - 1
    if fmt == "json":
        keys = [f"      {json.dumps(name)}: " for name in fieldnames]
        prefixes, seps = ["\n    {\n" + keys[0], *keys[1:]], [",\n"] * last + ["\n    },"]
        head = f'{{\n  "units": {json.dumps(UNITS_NOTE)},\n  "rows": ['
        row_sep, close, empty = ",", "\n  ]\n}\n", "]\n}\n"
        absent, label, spec = "null", json.dumps, "%s"
        nines = list(map(float, ("%.9g\0" * values.size % tuple(values.tolist())).split("\0")[:-1]))
        numbers = np.array(json.dumps(nines)[1:-1].split(", "), dtype=object)
    else:
        prefixes, seps = [""] * len(columns), [","] * last + ["\r\n"]
        head = f"# {UNITS_NOTE}\r\n{','.join(fieldnames)}\r\n"
        row_sep = close = empty = absent = ""
        label, spec = str, "%.9g"

    # ids[j]: column j's index into its label entries, or into values for its
    # float table; the float tables' indices go into entries group by group
    entries, ids, groups, start = [], [], {}, 0
    for j, (codes, table) in enumerate(coded):
        if isinstance(table, np.ndarray):
            ids.append(inverse[start:start + table.size])
            start += table.size
            groups.setdefault((prefixes[j], seps[j]), []).append(j)
        else:
            ids.append(codes + len(entries))
            entries += [prefixes[j] + (absent if v is None else label(getattr(v, "value", v)))
                        + seps[j] for v in table]
    nan = (values != values).nonzero()[0].tolist()
    at = np.empty(values.size, dtype=np.intp)  # the entry of each value in the current group
    for (prefix, sep), members in groups.items():
        used = np.zeros(values.size, dtype=bool)
        for j in members:
            used[ids[j]] = True
        picked = used.nonzero()[0]
        at[picked] = np.arange(len(entries), len(entries) + picked.size)
        for j in members:
            ids[j] = at[ids[j]][coded[j][0]]
        template = prefix.replace("%", "%%") + spec + sep + "\0"
        entries += (template * picked.size % tuple(numbers[picked].tolist())).split("\0")[:-1]
        for i in nan:
            if used[i]:
                entries[at[i]] = prefix + absent + sep

    if not len(ids[0]):
        return head + empty
    # one join over the rows x columns cells; the frame joins as part of the first and last
    cells = np.array(entries, dtype=object)[np.column_stack(ids).ravel()].tolist()
    cells[0] = head + cells[0]
    cells[-1] = cells[-1].removesuffix(row_sep) + close
    return "".join(cells)


def __getattr__(name: str):
    if name == "find_roots":  # solver.find_roots, bound on first use: at import it loads numpy
        from .solver import find_roots
        globals()[name] = find_roots
        return find_roots
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cmd_roots(args, params: ModelParams) -> tuple[list[str], list]:
    import numpy as np
    from .solver import ABSENT, COLUMN_BRANCH, STABILITIES
    params = replace(params, g=args.g, zeta=args.zeta)
    pts = sys.modules[__name__].find_roots(params)  # at call time, where it may be replaced
    j = np.flatnonzero(pts.stability[0] != ABSENT)  # the present points, normal ones first
    names = ["branch", "gamma_bar", "np", "delta_na", "nb", "energy", "curvature", "stability"]
    return names, [(j, [SpinBranch(sign).name.lower() for sign in COLUMN_BRANCH]),
                   np.sqrt(pts.x[0, j]), *(column[0, j] for column in (
                       pts.n_p, pts.delta_n_a, pts.n_b, pts.energy, pts.curvature)),
                   (pts.stability[0, j], STABILITIES)]


def _cmd_sweep(args, params: ModelParams) -> tuple[list[str], list]:
    import numpy as np
    from . import diagram
    from .solver import ABSENT, PHASES, STABILITIES
    params = replace(params, zeta=args.zeta)
    sweep = diagram.sweep_g(params, _axis(params, *args.g, "g"))
    rows, k, j = np.arange(sweep.g.size), sweep.ground, sweep.source.T  # j: (tag, row)
    columns = [sweep.g, (sweep.phase, PHASES), *(column[rows, k] for column in (
        sweep.n_p, sweep.delta_n_a, sweep.n_b, sweep.energy))]
    found = j >= 0
    n_p, energy = (np.where(found, column[rows, j], np.nan) for column in (sweep.n_p, sweep.energy))
    stability = np.where(found, sweep.stability[rows, j], ABSENT)
    for tag_n_p, tag_energy, tag_stability in zip(n_p, energy, stability):
        columns += [tag_n_p, tag_energy, (tag_stability, STABILITIES)]
    return ["g", "phase", "np_ground", "dna_ground", "nb_ground", "eps_ground"] + [
        f"{kind}_{tag}" for tag in diagram.BRANCH_TAGS for kind in ("np", "eps", "stability")
    ], columns


def _cmd_phase_diagram(args, params: ModelParams) -> tuple[list[str], list]:
    import numpy as np
    from . import diagram
    from .solver import PHASES
    g_steps, zeta_steps = args.g[2], args.zeta[2]
    if g_steps * zeta_steps > MAX_GRID_CELLS:
        raise InvalidInput(f"{g_steps} x {zeta_steps} = {g_steps * zeta_steps} cells exceed "
                           f"the cap of {MAX_GRID_CELLS}")
    g, zeta = _axis(params, *args.g, "g"), _axis(params, *args.zeta, "zeta")
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


def _cmd_turning_point(args, params: ModelParams) -> tuple[list[str], tuple[float, ...]]:
    params = replace(params, zeta=args.zeta)
    g_t = turning_point(params)
    if math.isinf(g_t):
        raise OutOfRange(f"zeta={args.zeta!r}: the fold coupling g_t exceeds the largest double")
    return ["zeta", "g_c", "g_t"], (args.zeta, critical_coupling(params), g_t)


def _cmd_sp_closure(args, params: ModelParams) -> tuple[list[str], tuple[float, ...]]:
    star = sp_closure(params, width_tol=args.width_tol)
    return (["zeta_star", "zeta_estimate", "width_tol", "g_c"],
            (star, closure_estimate(params), args.width_tol, critical_coupling(params)))


def _cmd_rabi_compare(args, params: ModelParams) -> tuple[list[str], list]:
    import numpy as np
    from . import rabi  # the ED: only this command loads it
    with np.errstate(all="ignore"):  # a grid wider than the largest double fails the ED's check
        g = np.linspace(*args.g)
    columns = rabi.compare_columns(params, g, n_max=args.n_max)  # its one check of g
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
    except (InvalidInput, OutOfRange) as exc:
        print(f"optodicke: invalid input: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:  # NotFound, rabi.ConvergenceFailure
        print(f"optodicke: solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    try:
        _emit(args, fieldnames, columns)
    except (OSError, ValueError) as exc:  # ValueError: a path holding NUL or a lone surrogate
        print(f"optodicke: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
