"""Sweeps, phase grids and the fold coupling along zeta."""

import contextlib
import csv
import io
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optodicke import diagram
from optodicke.diagram import (
    BRANCH_TAGS,
    Sweep,
    grid_row,
    phase_grid,
    sweep_g,
    sweep_row,
)
from optodicke.cli import run
from optodicke.model import ModelParams, PhaseLabel, Stability
from optodicke.solver import (
    PHASES,
    STABILITIES,
    NotFound,
    closure_estimate,
    critical_coupling,
    ground_state,
    solve_ground,
    turning_point,
)

import oracles

GT_Z1 = 1.763026785  # fold oracle, zeta = 1


def dicke_np(g, omega=1.0, omega_a=1.0):
    """Mean photon number of the oscillator-free model, closed form."""
    if g <= math.sqrt(omega * omega_a):
        return 0.0
    return 0.25 * (g**2 / omega**2 - omega_a**2 / g**2)


def dicke_energy(g, omega=1.0, omega_a=1.0):
    if g <= math.sqrt(omega * omega_a):
        return -omega_a / 2.0
    return -(omega / 4.0) * (g**2 / omega**2 + omega_a**2 / g**2)


def at_ground(sweep, column):
    """The entries of a point column (n_p, energy, ...) at each row's ground state."""
    return column[np.arange(sweep.g.size), sweep.ground]


def cells(grid):
    """The g and the zeta of every cell of a PhaseGrid, in the (zeta, g) order of its phase."""
    return np.tile(grid.g, grid.zeta.size), np.repeat(grid.zeta, grid.g.size)


def tags_at(sweep, i):
    """The BRANCH_TAGS present at row i, in tag order."""
    return [tag for tag, j in zip(BRANCH_TAGS, sweep.source[i].tolist()) if j >= 0]


SP, N_MINUS, N_PLUS = (PHASES.index(p) for p in
                       (PhaseLabel.SP, PhaseLabel.NP_NMINUS, PhaseLabel.NP_NPLUS))


class TestDickeSweep:
    def test_photon_number_closed_form(self):
        sweep = sweep_g(ModelParams(zeta=0.0), np.linspace(0.0, 3.0, 301))
        for g, n_p, energy, n_b in zip(sweep.g.tolist(), *(at_ground(sweep, c).tolist() for c in
                                                            (sweep.n_p, sweep.energy, sweep.n_b))):
            assert n_p == pytest.approx(dicke_np(g), abs=1e-10)
            assert energy == pytest.approx(dicke_energy(g), abs=1e-10)
            assert n_b == 0.0

    def test_n_independent(self):
        gs = np.linspace(0.0, 3.0, 61)
        sweep_1 = sweep_g(ModelParams(zeta=0.0, n_atoms=1), gs)
        sweep_100 = sweep_g(ModelParams(zeta=0.0, n_atoms=100), gs)
        for name in ("n_p", "delta_n_a", "n_b", "energy"):
            assert np.array_equal(at_ground(sweep_1, getattr(sweep_1, name)),
                                  at_ground(sweep_100, getattr(sweep_100, name)))
        assert np.array_equal(sweep_1.phase, sweep_100.phase)


class TestBranchContents:
    def test_inside_superradiant_window(self):
        sweep = sweep_g(ModelParams(zeta=1.0), np.linspace(1.5, 3.0, 2))
        assert tags_at(sweep, 0) == list(BRANCH_TAGS)
        assert PHASES[sweep.phase[0]] is PhaseLabel.SP

    def test_beyond_fold(self):
        sweep = sweep_g(ModelParams(zeta=1.0), np.linspace(2.0, 2.5, 2))
        # the nonzero normal-branch pair no longer exists past the fold
        assert tags_at(sweep, 0) == ["N-", "N+", "gus+"]
        assert PHASES[sweep.phase[0]] is PhaseLabel.NP_NPLUS
        ground = [at_ground(sweep, c)[0] for c in (sweep.n_p, sweep.delta_n_a, sweep.energy)]
        assert ground == [0.0, 0.5, 0.5]

    def test_unstable_branch_ordering(self):
        # where both unstable nonzero states exist, the inverted one has the
        # larger photon number and energy
        sweep = sweep_g(ModelParams(zeta=1.0), np.linspace(0.4, 1.7, 14))
        rows = np.arange(sweep.g.size)
        minus, plus = (sweep.source[:, BRANCH_TAGS.index(tag)] for tag in ("gus-", "gus+"))
        both = (minus >= 0) & (plus >= 0)
        assert np.all(sweep.n_p[rows, plus][both] >= sweep.n_p[rows, minus][both])
        assert np.all(sweep.energy[rows, plus][both] >= sweep.energy[rows, minus][both])
        assert both.sum() == sweep.g.size

    def test_branch_tags_unique(self):
        sweep = sweep_g(ModelParams(zeta=1.5), np.linspace(0.1, 2.9, 15))
        for i, columns in enumerate(sweep.source.tolist()):
            # no point is listed under two tags
            columns = [j for j in columns if j >= 0]
            assert len(columns) == len(set(columns))
            assert {"N-", "N+"} <= set(tags_at(sweep, i))


class TestMultiTransition:
    def test_energy_curve_zeta_one(self):
        sweep = sweep_g(ModelParams(zeta=1.0), np.linspace(0.0, 3.0, 301))
        energies = at_ground(sweep, sweep.energy)
        for g, phase, energy in zip(sweep.g.tolist(), sweep.phase.tolist(), energies.tolist()):
            if g < 1.0:
                assert PHASES[phase] is PhaseLabel.NP_NMINUS
                assert energy == -0.5
            elif 1.0 < g < GT_Z1:
                assert PHASES[phase] is PhaseLabel.SP
                assert energy < -0.5
            elif g > GT_Z1:
                assert PHASES[phase] is PhaseLabel.NP_NPLUS
                assert energy == +0.5
        sp_energies = energies[sweep.phase == SP].tolist()
        assert all(a > b for a, b in zip(sp_energies, sp_energies[1:]))

    def test_population_transfer_zeta_three(self):
        sweep = sweep_g(ModelParams(zeta=3.0), np.linspace(0.0, 3.0, 301))
        assert not np.any(sweep.phase == SP)
        dna = dict(zip(sweep.g.tolist(), at_ground(sweep, sweep.delta_n_a).tolist()))
        assert dna[0.99] == -0.5 and dna[1.0] == -0.5
        assert dna[1.01] == +0.5 and dna[3.0] == +0.5

    def test_order_parameter_jumps(self):
        sweep = sweep_g(ModelParams(zeta=1.0), np.linspace(0.9, 2.0, 111))
        nps = at_ground(sweep, sweep.n_p).tolist()
        jumps = [abs(b - a) for a, b in zip(nps, nps[1:])]
        # continuous onset at g_c, first-order collapse at g_t
        onset = max(j for j, g in zip(jumps, sweep.g[1:].tolist()) if g <= 1.3)
        assert onset < 0.05
        assert max(jumps) > 0.1


class TestPhaseGrid:
    def test_example_cells(self):
        grid = phase_grid(ModelParams(), np.linspace(0.5, 1.3, 2), np.linspace(1.0, 2.5, 4))
        labels = {(g, zeta): PHASES[k] for g, zeta, k in
                  zip(*(c.tolist() for c in cells(grid)), grid.phase.tolist())}
        assert labels[(0.5, 1.5)] is PhaseLabel.NP_NMINUS
        assert labels[(1.3, 1.0)] is PhaseLabel.SP
        assert labels[(1.3, 2.5)] is PhaseLabel.NP_NPLUS

    def test_partition_and_window(self):
        grid = phase_grid(ModelParams(), np.linspace(0.2, 2.8, 14), np.linspace(0.4, 2.8, 7))
        assert (grid.g.size, grid.zeta.size, grid.phase.size) == (14, 7, 14 * 7)
        sp = grid.phase == SP
        for g, zeta in zip(*(c[sp].tolist() for c in cells(grid))):
            assert 1.0 < g < oracles.fold_gt(zeta) + 1e-9

    def test_cells_ordered(self):
        params, gs, zetas = ModelParams(), np.linspace(0.5, 2.5, 5), np.linspace(0.5, 2.0, 4)
        grid = phase_grid(params, gs, zetas)
        # the axes are the input grids, and phase[k * g.size + i] is the cell (zeta[k], g[i])
        assert np.array_equal(grid.g, gs) and np.array_equal(grid.zeta, zetas)
        for k, zeta in enumerate(grid.zeta.tolist()):
            for i, g in enumerate(grid.g.tolist()):
                expected = ground_state(replace(params, g=g, zeta=zeta))[0]
                assert PHASES[grid.phase[k * grid.g.size + i]] is expected, (g, zeta)

    def test_boundaries_refined(self):
        grid = phase_grid(ModelParams(), np.linspace(0.5, 2.5, 11), np.linspace(1.0, 1.0 + 1e-9, 2))
        at = grid.boundary_zeta == 1.0
        assert at.sum() == 2
        (g_onset, g_collapse) = grid.boundary_g[at].tolist()
        assert grid.boundary_below[at].tolist() == [N_MINUS, SP]
        assert grid.boundary_above[at].tolist() == [SP, N_PLUS]
        assert g_onset == pytest.approx(1.0, abs=2e-4)
        assert g_collapse == pytest.approx(GT_Z1, abs=2e-4)

    def test_consistent_with_sweep(self):
        params, gs, zetas = ModelParams(), np.linspace(0.3, 2.7, 9), np.linspace(0.7, 2.1, 3)
        grid = phase_grid(params, gs, zetas)
        for zeta, labels in zip(zetas, grid.phase.reshape(grid.zeta.size, -1)):
            rows = sweep_g(replace(params, zeta=float(zeta)), np.linspace(0.3, 2.7, 9))
            assert labels.tolist() == rows.phase.tolist()


def test_shifted_grid_next_to_fold(tmp_path):
    # a cell of this grid falls within ~1e-7 of the fold at the first zeta
    out = tmp_path / "pd.csv"
    assert run(["phase-diagram", "--g", "0:3.0032807507333006:61",
                "--zeta", "1.0542561875347163:2:2", "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    cells = [r for r in rows if r["kind"] == "cell"]
    assert len(cells) == 122
    for row in cells:
        g, g_t = float(row["g"]), oracles.fold_gt(float(row["zeta"]))
        expected = "NP_Nminus" if g < 1.0 else "SP" if g < g_t else "NP_Nplus"
        assert row["phase"] == expected, row
    bounds = [r for r in rows if r["kind"] == "boundary"]
    assert [(b["phase"], b["phase_above"]) for b in bounds] == [
        ("NP_Nminus", "SP"), ("SP", "NP_Nplus")] * 2
    for b in bounds:
        edge = 1.0 if b["phase"] == "NP_Nminus" else oracles.fold_gt(float(b["zeta"]))
        assert float(b["g"]) == pytest.approx(edge, abs=1e-4)


class TestGridReferee:
    """Grid labels and boundaries against the scalar solver and the fold oracle."""

    @settings(max_examples=80, deadline=None)
    @given(omega=st.floats(0.3, 3.0), omega_a=st.floats(0.3, 3.0), omega_b=st.floats(1.0, 40.0),
           g_lo=st.one_of(st.just(0.0), st.floats(1e-100, 1.5)), g_span=st.floats(0.05, 3.0),
           g_steps=st.integers(2, 25), z_lo=st.one_of(st.just(0.0), st.floats(1e-100, 1.2)),
           z_span=st.floats(0.01, 0.5), z_steps=st.integers(2, 5))
    def test_matches_ground_state_and_fold(self, omega, omega_a, omega_b, g_lo, g_span, g_steps,
                                           z_lo, z_span, z_steps):
        # Grid ends in units of g_c and of the closure coupling, so that every
        # draw spans the interesting region whatever the frequencies.  g and
        # zeta start at 0 or at least 1e-100 of their unit, well inside the
        # range where every stationary point fits in doubles.
        base = ModelParams(omega=omega, omega_a=omega_a, omega_b=omega_b)
        g_c, closure = critical_coupling(base), closure_estimate(base)
        grid = phase_grid(base, np.linspace(g_lo * g_c, (g_lo + g_span) * g_c, g_steps),
                          np.linspace(z_lo * closure, (z_lo + z_span) * closure, z_steps))
        assert (grid.g.size, grid.zeta.size, grid.phase.size) == (g_steps, z_steps,
                                                                   g_steps * z_steps)
        changes = []  # (zeta, label below, label above) of each label change
        for k in range(z_steps):
            row = slice(k * g_steps, (k + 1) * g_steps)
            zs, labels = [grid.zeta[k].item()] * g_steps, grid.phase[row].tolist()
            for g, zeta, label in zip(grid.g.tolist(), zs, labels):
                params = replace(base, g=g, zeta=zeta)
                assert PHASES[label] is ground_state(params)[0], (g, zeta)
            changes += [(zeta, lo, hi) for zeta, lo, hi in zip(zs, labels, labels[1:]) if lo != hi]
        bounds = list(zip(grid.boundary_zeta.tolist(), grid.boundary_g.tolist(),
                          grid.boundary_below.tolist(), grid.boundary_above.tolist()))
        assert [(zeta, below) for zeta, _, below, _ in bounds] == [(z, lo) for z, lo, _ in changes]
        for (zeta, g_b, below, above), (_, _, hi) in zip(bounds, changes):
            if above != hi:  # an SP window inside one g step
                assert (below, above, hi) == (N_MINUS, SP, N_PLUS)
            if below == N_MINUS:
                edge = g_c
            else:
                assert below == SP
                try:
                    edge = oracles.fold_gt(zeta, omega, omega_a, omega_b)
                except ValueError:  # the oracle resolves no window below 1e-12 g_c
                    edge = g_c
            assert g_b == pytest.approx(edge, rel=1e-9), (zeta, g_b, below, above)

    def test_marginal_cells_of_every_row(self, monkeypatch):
        # g_c is the middle g of every zeta row, so each row has a marginal N- cell.
        # At zeta exactly closure_estimate the slope probe finds no minimum there
        # (the solver has an SP root of rounding size), and only that cell is solved.
        base = ModelParams(omega=0.75, omega_a=1.2964465672968557, omega_b=36.75)
        g_c, closure = critical_coupling(base), closure_estimate(base)
        gs, zetas = np.linspace(0.0, 2.0 * g_c, 3), np.linspace(0.0, closure, 5)
        assert gs[1] == g_c and zetas[-1] == closure
        solved = []

        def spy(params, g):
            solved.append((params.zeta, g.tolist()))
            return solve_ground(params, g)

        monkeypatch.setattr(diagram, "solve_ground", spy)
        grid = phase_grid(base, gs, zetas)
        assert solved == [(closure, [g_c])]
        for g, zeta, label in zip(*(c.tolist() for c in cells(grid)), grid.phase.tolist()):
            assert PHASES[label] is ground_state(replace(base, g=g, zeta=zeta))[0], (g, zeta)
        assert PHASES[grid.phase[-2]] is PhaseLabel.SP

    # omega = 2 puts g_c = sqrt(2) on a double whose square is not omega*omega_a
    @pytest.mark.parametrize("omega", [1.0, 2.0])
    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_cell_exactly_at_critical_coupling(self, omega, side):
        base = ModelParams(omega=omega)
        g_c = critical_coupling(base)
        zeta = closure_estimate(base) * (1.0 + 0.01 * side)
        gs = np.linspace(0.0, 2.0 * g_c, 3)
        (index,), (_, g_b, below, _) = grid_row(base, gs, np.array([zeta]))
        assert gs[1] == g_c
        want = ground_state(replace(base, g=g_c, zeta=zeta))[0]
        assert PHASES[index[1]] is want
        if side < 0:
            assert want is PhaseLabel.NP_NMINUS
        elif side > 0:
            assert want is PhaseLabel.NP_NPLUS
        assert g_b.tolist() == [g_c]
        assert PHASES[below[0]] is PhaseLabel.NP_NMINUS

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0, 3.0])
    def test_cell_exactly_at_turning_point(self, zeta):
        g_t = turning_point(ModelParams(), zeta=zeta)
        gs = np.linspace(0.0, 2.0 * g_t, 9)
        (index,), (_, g_b, below, _) = grid_row(ModelParams(), gs, np.array([zeta]))
        assert gs[4] == g_t
        assert PHASES[index[4]] is PhaseLabel.NP_NPLUS
        assert g_b[below == SP].tolist() in ([g_t], [])
        # The fold rule: no superradiant root is a ground-state candidate from
        # the computed g_t up, so the solver agrees with the grid there too.
        def phase_at(g):
            return ground_state(ModelParams(g=g, zeta=zeta))[0]

        assert phase_at(g_t) is PhaseLabel.NP_NPLUS
        assert phase_at(g_t * (1 - 1e-14)) is PhaseLabel.SP
        assert phase_at(g_t * (1 + 1e-14)) is PhaseLabel.NP_NPLUS

    @pytest.mark.parametrize("zeta, above", [(1e-120, PhaseLabel.SP), (1e300, PhaseLabel.NP_NPLUS)])
    def test_extreme_zeta_rows(self, zeta, above):
        # far below and far above the closure coupling, where the scalar
        # solver's cubic overflows; g_t is then ~1.7e120, or absent
        gs, zetas = np.linspace(0.5, 3.5, 4), np.array([zeta])
        (index,), (_, g_b, _, b_above) = grid_row(ModelParams(), gs, zetas)
        assert [PHASES[k] for k in index] == [PhaseLabel.NP_NMINUS] + [above] * 3
        assert [(g, PHASES[k]) for g, k in zip(g_b.tolist(), b_above.tolist())] == [(1.0, above)]

    def test_window_narrower_than_grid_step(self, tmp_path):
        assert 1.0 < oracles.fold_gt(3.135) < 1.25
        out = tmp_path / "pd.csv"
        assert run(["phase-diagram", "--g", "0:3:13", "--zeta", "3.135:3.2:2",
                    "--output", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        for row in rows:
            if row["kind"] == "cell":
                # g = g_c = 1 is a minimum of N- below the closure coupling only
                g, zeta = float(row["g"]), float(row["zeta"])
                below = g < 1.0 or (g == 1.0 and zeta < math.sqrt(10.0))
                assert row["phase"] == ("NP_Nminus" if below else "NP_Nplus"), row
        bounds = [(r["zeta"], r["g"], r["phase"], r["phase_above"])
                  for r in rows if r["kind"] == "boundary"]
        # one boundary per label change; the open window shows as phase_above
        assert bounds == [("3.135", "1", "NP_Nminus", "SP"),
                          ("3.2", "1", "NP_Nminus", "NP_Nplus")]

    def test_negative_grid_start_rejected(self):
        with pytest.raises(ValueError, match="g must be >= 0"):
            phase_grid(ModelParams(), np.linspace(-1.0, 3.0, 61), np.linspace(0.0, 3.0, 61))
        with pytest.raises(ValueError, match="zeta must be >= 0"):
            phase_grid(ModelParams(), np.linspace(0.0, 3.0, 61), np.linspace(-1.0, 3.0, 61))
        with pytest.raises(ValueError, match="g must be >= 0"):
            sweep_g(ModelParams(), np.linspace(-1.0, 3.0, 301))

    @pytest.mark.parametrize("axis", ["g", "zeta"])
    @pytest.mark.parametrize("at", [0, 2, -1])
    @pytest.mark.parametrize("bad, message", [(-1e-300, ">= 0"), (-2.0, ">= 0"),
                                              (math.nan, "finite"), (math.inf, "finite")])
    def test_bad_coupling_anywhere_rejected(self, axis, at, bad, message):
        # every coupling is checked, not only the start: a NaN or inf end used
        # to label NaN and inf cells
        axes = {"g": np.linspace(0.5, 3.0, 5), "zeta": np.linspace(0.0, 2.0, 5)}
        axes[axis][at] = bad
        with pytest.raises(ValueError, match=f"^{axis} must be {message}"):
            phase_grid(ModelParams(), axes["g"], axes["zeta"])
        if axis == "g":
            with pytest.raises(ValueError, match=f"^g must be {message}"):
                sweep_g(ModelParams(zeta=1.0), axes["g"])


class TestFoldRule:
    """Sweep rows, ground_state and phase-diagram cells at g_c, at the computed g_t and at closure."""

    @pytest.mark.parametrize("omega, omega_a, omega_b", [(1.0, 1.0, 10.0), (2.0, 0.7, 25.0)])
    def test_sweep_ground_state_and_grid_agree(self, omega, omega_a, omega_b):
        base = ModelParams(omega=omega, omega_a=omega_a, omega_b=omega_b)
        g_c, closure = critical_coupling(base), closure_estimate(base)
        for zeta in [*(np.linspace(0.02, 0.999, 40) * closure).tolist(), closure]:
            couplings = [g_c]
            with contextlib.suppress(NotFound):
                couplings.append(turning_point(base, zeta=zeta))
            for g in couplings:
                # the middle point of a 3-point grid from 0 to 2 g is g itself
                gs = np.linspace(0.0, 2.0 * g, 3)
                assert gs[1] == g
                # all five values of the one-point call are the sweep row's, bit for bit
                want, *values = ground_state(replace(base, g=g, zeta=zeta))
                rows = sweep_g(replace(base, zeta=zeta), gs)
                assert PHASES[rows.phase[1]] is want, (zeta, g)
                ground = [at_ground(rows, c)[1] for c in (rows.n_p, rows.delta_n_a, rows.n_b,
                                                         rows.energy)]
                assert np.array_equal(np.array(values).view(np.int64),
                                      np.array(ground).view(np.int64)), (zeta, g)
                (index,), _ = grid_row(base, gs, np.array([zeta]))
                assert PHASES[index[1]] is want, (zeta, g)
                if g != g_c:  # no superradiant root is a candidate from g_t up
                    assert want is PhaseLabel.NP_NPLUS, zeta


class TestBoundaryTrace:
    """g_c and turning_point along a zeta grid."""

    def test_reference_rows(self):
        params, zetas = ModelParams(), np.linspace(0.0, 3.0, 4).tolist()
        assert zetas == [0.0, 1.0, 2.0, 3.0]
        assert critical_coupling(params) == 1.0
        with pytest.raises(NotFound):
            turning_point(params, zeta=zetas[0])
        g_t = [turning_point(params, zeta=z) for z in zetas[1:]]
        assert g_t[0] == pytest.approx(GT_Z1, abs=5e-6)
        assert g_t[1] == pytest.approx(1.087827300, abs=5e-6)
        assert g_t[2] <= 1.01

    def test_monotone_window(self):
        gts = [turning_point(ModelParams(), zeta=z) for z in np.linspace(0.5, 2.5, 5).tolist()]
        assert all(a > b for a, b in zip(gts, gts[1:]))

    def test_critical_line_flat_in_oscillator(self):
        for wb in (5.0, 10.0, 40.0):
            for zeta in np.linspace(0.5, 2.5, 3).tolist():
                assert critical_coupling(ModelParams(omega_b=wb, zeta=zeta)) == 1.0


class TestSweepReferee:
    """The array sweep against the sign-scan oracle and one-point solves."""

    @staticmethod
    def _stability(slope):
        return Stability.STABLE if slope > 0.0 else Stability.UNSTABLE

    def _check_row(self, p, sweep, i, g_c, g_t):
        g = float(sweep.g[i])
        args = (g, p.zeta, p.omega, p.omega_a, p.omega_b)
        column = {tag: j for tag, j in zip(BRANCH_TAGS, sweep.source[i].tolist()) if j >= 0}
        for tag, sign in (("N-", -1), ("N+", +1)):
            stability = STABILITIES[sweep.stability[i, column[tag]]]
            if stability is not Stability.MARGINAL:
                p0 = oracles.p_of_x(0.0, sign, *args)
                assert stability is self._stability(p0), (g, tag)
        for sign, tags in ((-1, ("gs-", "gus-")), (+1, ("gus+",))):
            got = [(float(sweep.n_p[i, column[t]]), STABILITIES[sweep.stability[i, column[t]]])
                   for t in tags if t in column]
            if sign < 0 and abs(g - g_t) <= 1e-9 * g_t:
                # within rounding of the fold the pair may or may not split;
                # roots, if reported, sit at the merged root A^3 = omega_b g^4/zeta^2
                a_star = (p.omega_b * g**4 / p.zeta**2) ** (1.0 / 3.0)
                x_star = (a_star**2 - p.omega_a**2) / (4.0 * g**2)
                assert [x for x, _ in got] == pytest.approx([x_star] * len(got), rel=1e-6)
                continue
            expected = oracles.scan_roots(sign, *args, n_points=20_000)
            if g == g_c:
                # at g_c a root within rounding of the zero point is no root
                floor = 1e-6 * max([1.0, *expected])
                got = [(x, s) for x, s in got if x > floor]
                expected = [x for x in expected if x > floor]
            assert len(got) == len(expected), (g, sign, got, expected)
            for (x, stability), x_ref in zip(got, expected):
                assert x == pytest.approx(x_ref, rel=1e-6, abs=1e-12)
                h = 1e-6 * x
                slope = oracles.p_of_x(x + h, sign, *args) - oracles.p_of_x(x - h, sign, *args)
                assert stability is self._stability(slope), (g, sign, x)

    @settings(max_examples=15, deadline=None)
    @given(omega=st.floats(0.3, 3.0), omega_a=st.floats(0.3, 3.0), omega_b=st.floats(1.0, 40.0),
           z_unit=st.floats(0.05, 0.95), z_over=st.floats(0.0, 0.5), k=st.integers(2, 4))
    def test_rows_match_scan_oracle_and_one_point_rows(self, omega, omega_a, omega_b, z_unit,
                                                        z_over, k):
        # g grids in units of g_c, 0 to 4 g_c in 2^k steps so that g_c is a grid
        # point, at zeta = 0, inside the window and at or past the closure
        # estimate; and the computed g_t with its neighbouring doubles
        base = ModelParams(omega=omega, omega_a=omega_a, omega_b=omega_b)
        g_c, closure = critical_coupling(base), closure_estimate(base)
        zeta = z_unit * closure
        g_t = turning_point(base, zeta=zeta)
        runs = [(replace(base, zeta=z), np.linspace(0.0, 4.0 * g_c, 2**k + 1))
                for z in (0.0, zeta, closure * (1.0 + z_over))]
        runs.append((replace(base, zeta=zeta),
                     np.linspace(math.nextafter(g_t, 0.0), math.nextafter(g_t, math.inf), 3)))
        for params, gs in runs:
            sweep = sweep_g(params, gs)
            assert sweep.g.tolist() == gs.tolist()
            assert g_c in sweep.g.tolist() or gs.size == 3
            for i, g in enumerate(gs.tolist()):
                one = sweep_row(params, g)
                for name in (f.name for f in fields(Sweep)):
                    full, single = getattr(sweep, name)[i], getattr(one, name)
                    assert single.shape[0] == 1 and np.array_equal(
                        full, single[0], equal_nan=full.dtype.kind == "f"), (g, name)
                self._check_row(params, sweep, i, g_c, g_t)

        # a roots call prints the values of the sweep row at the same g
        params, gs = runs[1]
        flags = ["--omega", repr(omega), "--omega-a", repr(omega_a), "--omega-b", repr(omega_b),
                 "--zeta", repr(params.zeta)]
        g = float(gs[1])
        sweep_out, roots_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sweep_out):
            assert run(["sweep", "--g", f"{g!r}:{float(gs[-1])!r}:2", *flags]) == 0
        with contextlib.redirect_stdout(roots_out):
            assert run(["roots", "--g", repr(g), *flags]) == 0
        sweep_out, roots_out = sweep_out.getvalue(), roots_out.getvalue()
        row = next(csv.DictReader(sweep_out.splitlines()[1:]))
        printed = {(r["branch"], r["np"], r["energy"], r["stability"])
                   for r in csv.DictReader(roots_out.splitlines()[1:])}
        expected = {("normal" if tag in ("N-", "gs-", "gus-") else "inverted",
                     row[f"np_{tag}"], row[f"eps_{tag}"], row[f"stability_{tag}"])
                    for tag in BRANCH_TAGS if row[f"np_{tag}"]}
        assert printed == expected


def test_result_columns_are_not_the_callers_arrays():
    # a returned g or zeta column is a copy: editing it leaves the caller's input alone
    from optodicke import rabi

    g, zeta = np.linspace(0.0, 3.0, 7), np.linspace(0.0, 3.0, 4)
    columns = (sweep_g(ModelParams(zeta=1.0), g).g, phase_grid(ModelParams(), g, zeta).g,
               phase_grid(ModelParams(), g, zeta).zeta,
               rabi.compare_columns(ModelParams(), g, n_max=20)[0])
    for column, given in zip(columns, (g, g, zeta, g)):
        assert np.array_equal(column, given) and not np.shares_memory(column, given)
