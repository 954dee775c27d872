"""The benchmark's three workloads: CLI operations built from a seed, and checks.

One operation is one call of the public entry point optodicke.cli.run with
an argument list.  Each workload gives the operations of its one-worker pass,
those of its two-worker (pool) pass, and a check that compares the outputs
with bench/oracle.py.  A tiny variant of every workload runs the same code
and checks on grids of a few points.
"""

from __future__ import annotations

import csv
import json
import math
import random

import numpy as np

import oracle

OMEGA, OMEGA_A, OMEGA_B = 1.0, 1.0, 10.0
SWEEP_ZETAS = (0.0, 1.0, 2.0, 3.0, 4.0)  # the program's presets plus one past closure
SP_CLOSURE_OMEGA_B = (5.0, 10.0, 20.0)
DETUNINGS = {"red": 0.8, "resonant": 1.0, "blue": 1.2}
STRONG_G, STRONG_N_MAX = 1e4, 50
BOUNDARY_RESOLUTION = 1e-4  # the program's stated boundary resolution
NEAR_BOUNDARY = 1e-6  # cells this close to g_c or g_t are not label-checked
TOL_GT, WIDTH_TOL = 1e-6, 1e-3  # the CLI defaults
SEED_SHIFT = 0.01  # largest seed-drawn shift of a grid endpoint or preset


def _num(value: float) -> str:
    return repr(float(value))


def _rows(text: str) -> list[dict]:
    """Rows of the program's CSV (after its units comment) or JSON output."""
    if text.startswith("{"):
        return [{k: ("" if v is None else v) for k, v in row.items()}
                for row in json.loads(text)["rows"]]
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("output does not start with the units comment")
    return list(csv.DictReader(lines[1:]))


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


class PhaseMap:
    """phase-diagram over (g, zeta): cell labels and refined boundaries."""

    name = "phase_map"

    def __init__(self, seed: int, tiny: bool) -> None:
        # The grid stays fixed whatever the seed: moving it lets the boundary
        # bisection land within ~1e-7 of the fold, where the program exits 3
        # (DegenerateBracket) on about a quarter of shifted grids.
        g_steps, z_steps = (9, 5) if tiny else (61, 61)
        self.ops = [["phase-diagram", "--g", f"0:3:{g_steps}", "--zeta", f"0:3:{z_steps}"]]
        self.pool_ops = self.ops

    def check(self, outputs: list[tuple[int, str]]) -> list[str]:
        code, text = outputs[0]
        if code != 0:
            return []
        errors: list[str] = []
        rows = _rows(text)
        cells = [r for r in rows if r["kind"] == "cell"]
        bounds = [r for r in rows if r["kind"] == "boundary"]
        g_c = oracle.critical_coupling(OMEGA, OMEGA_A)
        by_zeta: dict[str, list[dict]] = {}
        for cell in cells:
            by_zeta.setdefault(cell["zeta"], []).append(cell)
        expected_bounds: list[tuple[dict, dict]] = []
        for zeta_text, row in by_zeta.items():
            zeta = float(zeta_text)
            g_t = oracle.fold_coupling(zeta, OMEGA, OMEGA_A, OMEGA_B)
            for cell in row:
                g = float(cell["g"])
                if min(abs(g - g_c), abs(g - g_t) if g_t else math.inf) <= NEAR_BOUNDARY:
                    continue
                want = oracle.phase_label(g, zeta, g_c, g_t)
                if cell["phase"] != want:
                    errors.append(f"cell g={g} zeta={zeta}: {cell['phase']} != {want}")
            expected_bounds += [(lo, hi) for lo, hi in zip(row, row[1:])
                                if lo["phase"] != hi["phase"]]
        if len(bounds) != len(expected_bounds):
            return errors + [f"{len(bounds)} boundaries for {len(expected_bounds)} label changes"]
        for b, (lo, hi) in zip(bounds, expected_bounds):
            zeta, g_b = float(b["zeta"]), float(b["g"])
            g_t = oracle.fold_coupling(zeta, OMEGA, OMEGA_A, OMEGA_B)
            at = {("NP_Nminus", "SP"): [g_c], ("SP", "NP_Nplus"): [g_t],
                  ("NP_Nminus", "NP_Nplus"): [g_c, g_t]}.get((b["phase"], b["phase_above"]), [])
            ok = (b["zeta"] == lo["zeta"] and b["phase"] == lo["phase"]
                  and float(lo["g"]) <= g_b <= float(hi["g"])
                  and any(x is not None and abs(g_b - x) <= BOUNDARY_RESOLUTION for x in at))
            if not ok:
                errors.append(f"boundary {b} does not match g_c={g_c} or g_t={g_t}")
        return errors

    def check_pool(self, outputs, pool_outputs) -> list[str]:
        return _same_bytes(self.ops, outputs, pool_outputs)


class PaperCurves:
    """The paper's 1-D results: sweeps over g, the fold g_t(zeta), closure zeta*."""

    name = "paper_curves"

    def __init__(self, seed: int, tiny: bool) -> None:
        rng = random.Random(seed)
        # Sweep grids stay fixed (see PhaseMap): a seed-moved grid point within
        # ~1e-7 of the fold makes the sweep exit 3.  turning-point and
        # sp-closure escalate their scans, so their inputs move with the seed.
        g_grid = "0:3:13" if tiny else "0:3:301"
        zetas = [0.25 * k + SEED_SHIFT * rng.random() for k in ((4, 8) if tiny else range(1, 13))]
        omega_bs = [w * (1.0 + SEED_SHIFT * rng.random())
                    for w in ((10.0,) if tiny else SP_CLOSURE_OMEGA_B)]
        self.ops = ([["sweep", "--g", g_grid, "--zeta", _num(z)] for z in SWEEP_ZETAS]
                    + [["turning-point", "--zeta", _num(z)] for z in zetas]
                    + [["sp-closure", "--omega-b", _num(w)] for w in omega_bs])
        self.pool_ops = self.ops

    def check(self, outputs: list[tuple[int, str]]) -> list[str]:
        errors: list[str] = []
        for args, (code, text) in zip(self.ops, outputs):
            if code != 0:
                continue
            value = float(args[-1])
            check = {"sweep": _check_sweep, "turning-point": _check_turning_point,
                     "sp-closure": _check_sp_closure}[args[0]]
            errors += [f"{' '.join(args)}: {e}" for e in check(value, _rows(text))]
        return errors

    def check_pool(self, outputs, pool_outputs) -> list[str]:
        return _same_bytes(self.ops, outputs, pool_outputs)


def _check_sweep(zeta: float, rows: list[dict]) -> list[str]:
    errors: list[str] = []
    g_c = oracle.critical_coupling(OMEGA, OMEGA_A)
    g_t = oracle.fold_coupling(zeta, OMEGA, OMEGA_A, OMEGA_B)
    tags = {-1: ("gs-", "gus-"), +1: ("gus+",)}
    for row in rows:
        g = float(row["g"])
        near = min(abs(g - g_c), abs(g - g_t) if g_t else math.inf) <= NEAR_BOUNDARY
        args = (g, zeta, OMEGA, OMEGA_A, OMEGA_B)
        for tag, eps in (("N-", -OMEGA_A / 2), ("N+", OMEGA_A / 2)):
            if float(row[f"np_{tag}"]) != 0.0 or not _close(float(row[f"eps_{tag}"]), eps, 1e-9):
                errors.append(f"g={g}: zero-photon state {tag} is off")
        for sign in (-1, +1):
            found = []
            for tag in tags[sign]:
                if row[f"np_{tag}"] == "":
                    continue
                x = float(row[f"np_{tag}"])
                scale = OMEGA + 2.0 * zeta**2 * x / OMEGA_B + g * g / OMEGA_A
                if abs(oracle.p_of_x(x, sign, *args)) > 1e-7 * scale:
                    errors.append(f"g={g}: {tag} amplitude^2 {x} is not a root of p")
                if not _close(float(row[f"eps_{tag}"]), oracle.energy_of_x(x, sign, *args),
                              1e-7, 1e-9):
                    errors.append(f"g={g}: {tag} energy is off")
                found.append((x, tag, row[f"stability_{tag}"]))
            if near:
                continue
            want = oracle.roots_x(sign, *args)
            if len(want) != len(found) or any(
                    not _close(x, w, 1e-7, 1e-12) for (x, _, _), w in zip(sorted(found), want)):
                errors.append(f"g={g}: branch {sign:+d} roots {found} != {want}")
                continue
            for x, tag, stability in found:
                stable = oracle.dp_dx(x, sign, *args) > 0.0
                if stability != ("stable" if stable else "unstable") or (tag == "gs-") != stable:
                    errors.append(f"g={g}: {tag} classified {stability}")
        if near:
            continue
        want = oracle.phase_label(g, zeta, g_c, g_t)
        if row["phase"] != want:
            errors.append(f"g={g}: phase {row['phase']} != {want}")
            continue
        sign = +1 if want == "NP_Nplus" else -1
        if zeta == 0.0:  # the Dicke closed forms
            n_p = oracle.roots_x(-1, *args)[0] if want == "SP" else 0.0
            eps = oracle.rabi_variational(g, OMEGA, OMEGA_A)
        else:
            n_p = float(row["np_gs-"]) if want == "SP" else 0.0
            eps = oracle.energy_of_x(n_p, sign, *args)
        dna = sign * OMEGA_A / (2.0 * math.sqrt(OMEGA_A**2 + 4.0 * g * g * n_p))
        n_b = (zeta * n_p / OMEGA_B) ** 2
        if not all(_close(float(row[col]), value, 1e-7, 1e-12) for col, value in (
                ("np_ground", n_p), ("eps_ground", eps), ("dna_ground", dna), ("nb_ground", n_b))):
            errors.append(f"g={g}: ground observables off the closed forms")
    return errors


def _check_turning_point(zeta: float, rows: list[dict]) -> list[str]:
    g_t = oracle.fold_coupling(zeta, OMEGA, OMEGA_A, OMEGA_B)
    got = float(rows[0]["g_t"])
    if g_t is None or abs(got - g_t) > TOL_GT + 1e-8 * g_t:
        return [f"g_t {got} != fold {g_t}"]
    return []


def _check_sp_closure(omega_b: float, rows: list[dict]) -> list[str]:
    star = float(rows[0]["zeta_star"])
    estimate = math.sqrt(omega_b * OMEGA**2 / OMEGA_A)
    below = star - 1.01e-6 * max(1.0, estimate)  # beyond the program's zeta step
    errors = []
    if not _close(float(rows[0]["zeta_estimate"]), estimate, 1e-8):
        errors.append("zeta_estimate is not sqrt(omega_b omega^2/omega_a)")
    if not star <= estimate * (1 + 1e-8):
        errors.append(f"zeta_star {star} above the closure estimate {estimate}")
    width = oracle.window_width(star, OMEGA, OMEGA_A, omega_b)
    if width > WIDTH_TOL + 2 * TOL_GT:
        errors.append(f"window at zeta_star is {width} > width_tol")
    if oracle.window_width(below, OMEGA, OMEGA_A, omega_b) <= WIDTH_TOL - 2 * TOL_GT:
        errors.append(f"zeta_star {star} is not the smallest closing coupling")
    return errors


class RabiCheck:
    """rabi-compare at three detunings plus one strong-coupling point."""

    name = "rabi_check"

    def __init__(self, seed: int, tiny: bool) -> None:
        rng = random.Random(seed)
        self.count, self.n_max = (5, 40) if tiny else (61, 300)
        g_max = 3.0 + SEED_SHIFT * rng.random()
        self.dense_at = range(0, self.count, max(1, (self.count - 1) // 4))
        grid = f"0:{_num(g_max)}:{self.count}"
        self.ops = [["rabi-compare", "--g", grid, "--n-max", str(self.n_max),
                     "--detuning", d] + (["--format", "json"] if d == "red" else [])
                    for d in DETUNINGS]
        self.ops.append(["rabi-compare", "--g", _num(STRONG_G), "--n-max", str(STRONG_N_MAX)])
        # The pool pass runs each grid on its middle point only (the program
        # builds its grid with np.linspace too, so the point is the same
        # double).  On the full grid, two pool workers each running OpenBLAS
        # threads on two cores take 1.8 to 17.6 s per call, too spread for
        # any bound.
        self.mid = self.count // 2
        g_mid = _num(np.linspace(0.0, g_max, self.count)[self.mid])
        self.pool_ops = [op[:2] + [g_mid] + op[3:] for op in self.ops[:-1]] + [self.ops[-1]]

    def check(self, outputs: list[tuple[int, str]]) -> list[str]:
        errors: list[str] = []
        for args, (code, text) in zip(self.ops, outputs):
            if code != 0:
                continue
            omega = DETUNINGS.get(args[args.index("--detuning") + 1] if "--detuning" in args
                                  else "resonant")
            n_max = int(args[args.index("--n-max") + 1])
            rows = _rows(text)
            dense_at = self.dense_at if len(rows) == self.count else range(len(rows))
            for i, row in enumerate(rows):
                g, ed = float(row["g"]), float(row["energy_ed"])
                ev, dev = float(row["energy_variational"]), float(row["deviation"])
                scale = max(1.0, abs(ed), abs(ev))
                if not _close(ev, oracle.rabi_variational(g, omega, OMEGA_A), 1e-8, 1e-12):
                    errors.append(f"{' '.join(args)}: variational energy off at g={g}")
                # The variational bound holds only where n_max holds the
                # coherent state; the strong-coupling point (about g^2/4
                # photons) is checked against the dense matrix alone.
                bounded = args is not self.ops[-1]
                if (bounded and dev < -1e-9 * scale) or abs(dev - (ev - ed)) > 1e-8 * scale:
                    errors.append(f"{' '.join(args)}: deviation {dev} at g={g}")
                if i in dense_at:
                    ref = oracle.rabi_dense_ground(g, omega, OMEGA_A, n_max)
                    if abs(ed - ref) > 1e-8 * scale:
                        errors.append(f"{' '.join(args)}: ED {ed} != dense {ref} at g={g}")
        return errors

    def check_pool(self, outputs, pool_outputs) -> list[str]:
        errors = []
        for op, (code, text), (pcode, ptext) in zip(self.ops, outputs, pool_outputs):
            if op is self.ops[-1] or code != 0 or pcode != 0:
                same = (code, text) == (pcode, ptext)
            else:
                (head, rows), (pool_head, pool_rows) = _split_rows(text), _split_rows(ptext)
                same = head == pool_head and pool_rows == [rows[self.mid]]
            if not same:
                errors.append(f"{' '.join(op)}: two-worker output differs from one worker")
        return errors


def _split_rows(text: str) -> tuple[str, list[str]]:
    """(header, data rows) of CSV or JSON output, as text, for byte comparison."""
    if text.startswith("{"):
        payload = json.loads(text)
        return payload["units"], [json.dumps(r) for r in payload["rows"]]
    lines = text.split("\r\n")
    return "\r\n".join(lines[:2]), [line for line in lines[2:] if line]


def _same_bytes(ops, outputs, pool_outputs) -> list[str]:
    return [f"{' '.join(op)}: two-worker output differs from one worker"
            for op, a, b in zip(ops, outputs, pool_outputs) if a != b]


WORKLOADS = {w.name: w for w in (PhaseMap, PaperCurves, RabiCheck)}
