"""Sweeps, phase grids and boundary traces."""

import contextlib
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optodicke.diagram import (
    BRANCH_TAGS,
    GridSpec,
    SweepSpec,
    boundary_trace,
    grid_row,
    phase_grid,
    sweep_g,
    sweep_row,
)
from optodicke.cli import run
from optodicke.model import ModelParams, PhaseLabel, Stability
from optodicke.solver import (
    PHASES,
    NotFound,
    closure_estimate,
    critical_coupling,
    ground_state,
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


class TestSweepSpec:
    def test_grid_inclusive(self):
        spec = SweepSpec(g_min=0.0, g_max=3.0, g_steps=301)
        grid = spec.grid()
        assert grid[0] == 0.0 and grid[-1] == 3.0 and len(grid) == 301

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(g_min=2.0, g_max=1.0)
        with pytest.raises(ValueError):
            SweepSpec(g_steps=1)
        with pytest.raises(ValueError):
            SweepSpec(omega_b=-1.0)


class TestDickeSweep:
    def test_photon_number_closed_form(self):
        rows = sweep_g(SweepSpec(zeta=0.0, g_min=0.0, g_max=3.0, g_steps=301))
        for row in rows:
            assert row.ground.n_p == pytest.approx(dicke_np(row.g), abs=1e-10)
            assert row.ground.energy == pytest.approx(dicke_energy(row.g), abs=1e-10)
            assert row.ground.n_b == 0.0

    def test_n_independent(self):
        rows_1 = sweep_g(SweepSpec(zeta=0.0, g_steps=61, n_atoms=1))
        rows_100 = sweep_g(SweepSpec(zeta=0.0, g_steps=61, n_atoms=100))
        for a, b in zip(rows_1, rows_100):
            assert a.ground == b.ground
            assert a.phase == b.phase


class TestBranchContents:
    def test_inside_superradiant_window(self):
        (row,) = sweep_g(SweepSpec(zeta=1.0, g_min=1.5, g_max=3.0, g_steps=2))[:1]
        tags = [e.tag for e in row.branches]
        assert tags == list(BRANCH_TAGS)
        assert row.phase is PhaseLabel.SP

    def test_beyond_fold(self):
        rows = sweep_g(SweepSpec(zeta=1.0, g_min=2.0, g_max=2.5, g_steps=2))
        row = rows[0]
        tags = [e.tag for e in row.branches]
        # the nonzero normal-branch pair no longer exists past the fold
        assert tags == ["N-", "N+", "gus+"]
        assert row.phase is PhaseLabel.NP_NPLUS
        assert (row.ground.n_p, row.ground.delta_n_a, row.ground.energy) == (0.0, 0.5, 0.5)

    def test_unstable_branch_ordering(self):
        # where both unstable nonzero states exist, the inverted one has the
        # larger photon number and energy
        rows = sweep_g(SweepSpec(zeta=1.0, g_min=0.4, g_max=1.7, g_steps=14))
        seen = 0
        for row in rows:
            by_tag = {e.tag: e for e in row.branches}
            if "gus-" in by_tag and "gus+" in by_tag:
                seen += 1
                assert by_tag["gus+"].observables.n_p >= by_tag["gus-"].observables.n_p
                assert by_tag["gus+"].observables.energy >= by_tag["gus-"].observables.energy
        assert seen == len(rows)

    def test_branch_tags_unique(self):
        for row in sweep_g(SweepSpec(zeta=1.5, g_min=0.1, g_max=2.9, g_steps=15)):
            tags = [e.tag for e in row.branches]
            assert len(tags) == len(set(tags))
            assert {"N-", "N+"} <= set(tags)


class TestMultiTransition:
    def test_energy_curve_zeta_one(self):
        rows = sweep_g(SweepSpec(zeta=1.0, g_min=0.0, g_max=3.0, g_steps=301))
        for row in rows:
            if row.g < 1.0:
                assert row.phase is PhaseLabel.NP_NMINUS
                assert row.ground.energy == -0.5
            elif 1.0 < row.g < GT_Z1:
                assert row.phase is PhaseLabel.SP
                assert row.ground.energy < -0.5
            elif row.g > GT_Z1:
                assert row.phase is PhaseLabel.NP_NPLUS
                assert row.ground.energy == +0.5
        sp_energies = [r.ground.energy for r in rows if r.phase is PhaseLabel.SP]
        assert all(a > b for a, b in zip(sp_energies, sp_energies[1:]))

    def test_population_transfer_zeta_three(self):
        rows = sweep_g(SweepSpec(zeta=3.0, g_min=0.0, g_max=3.0, g_steps=301))
        assert all(row.phase is not PhaseLabel.SP for row in rows)
        dna = {row.g: row.ground.delta_n_a for row in rows}
        assert dna[0.99] == -0.5 and dna[1.0] == -0.5
        assert dna[1.01] == +0.5 and dna[3.0] == +0.5

    def test_order_parameter_jumps(self):
        rows = sweep_g(SweepSpec(zeta=1.0, g_min=0.9, g_max=2.0, g_steps=111))
        nps = [r.ground.n_p for r in rows]
        jumps = [abs(b - a) for a, b in zip(nps, nps[1:])]
        # continuous onset at g_c, first-order collapse at g_t
        onset = max(j for j, r in zip(jumps, rows[1:]) if r.g <= 1.3)
        assert onset < 0.05
        assert max(jumps) > 0.1


class TestPhaseGrid:
    def test_example_cells(self):
        spec = GridSpec(g_min=0.5, g_max=1.3, g_steps=2, zeta_min=1.0, zeta_max=2.5, zeta_steps=4)
        grid = phase_grid(spec)
        labels = {(c.g, c.zeta): c.phase for c in grid.cells}
        assert labels[(0.5, 1.5)] is PhaseLabel.NP_NMINUS
        assert labels[(1.3, 1.0)] is PhaseLabel.SP
        assert labels[(1.3, 2.5)] is PhaseLabel.NP_NPLUS

    def test_partition_and_window(self):
        spec = GridSpec(g_min=0.2, g_max=2.8, g_steps=14, zeta_min=0.4, zeta_max=2.8, zeta_steps=7)
        grid = phase_grid(spec)
        assert len(grid.cells) == 14 * 7
        for cell in grid.cells:
            if cell.phase is PhaseLabel.SP:
                assert 1.0 < cell.g < oracles.fold_gt(cell.zeta) + 1e-9

    def test_cells_ordered(self):
        spec = GridSpec(g_steps=5, zeta_steps=4, g_min=0.5, g_max=2.5, zeta_min=0.5, zeta_max=2.0)
        grid = phase_grid(spec)
        coords = [(c.zeta, c.g) for c in grid.cells]
        assert coords == sorted(coords)

    def test_boundaries_refined(self):
        spec = GridSpec(g_min=0.5, g_max=2.5, g_steps=11, zeta_min=1.0, zeta_max=1.0 + 1e-9,
                        zeta_steps=2)
        grid = phase_grid(spec)
        bounds = [b for b in grid.boundaries if b.zeta == 1.0]
        assert len(bounds) == 2
        onset, collapse = bounds
        assert onset.phase_below is PhaseLabel.NP_NMINUS
        assert onset.phase_above is PhaseLabel.SP
        assert onset.g_refined == pytest.approx(1.0, abs=2e-4)
        assert collapse.phase_below is PhaseLabel.SP
        assert collapse.phase_above is PhaseLabel.NP_NPLUS
        assert collapse.g_refined == pytest.approx(GT_Z1, abs=2e-4)

    def test_consistent_with_sweep(self):
        spec = GridSpec(g_min=0.3, g_max=2.7, g_steps=9, zeta_min=0.7, zeta_max=2.1, zeta_steps=3)
        grid = phase_grid(spec)
        for zeta in spec.zeta_grid():
            rows = sweep_g(SweepSpec(zeta=float(zeta), g_min=0.3, g_max=2.7, g_steps=9))
            cells = [c for c in grid.cells if c.zeta == zeta]
            assert [c.phase for c in cells] == [r.phase for r in rows]


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
        spec = GridSpec(omega=omega, omega_a=omega_a, omega_b=omega_b,
                        g_min=g_lo * g_c, g_max=(g_lo + g_span) * g_c, g_steps=g_steps,
                        zeta_min=z_lo * closure, zeta_max=(z_lo + z_span) * closure,
                        zeta_steps=z_steps)
        grid = phase_grid(spec)
        assert len(grid.cells) == g_steps * z_steps
        changes = []
        for k in range(z_steps):
            row = grid.cells[k * g_steps:(k + 1) * g_steps]
            for cell in row:
                assert cell.phase is ground_state(spec.params_at(cell.g, cell.zeta)).phase, cell
            changes += [(lo, hi) for lo, hi in zip(row, row[1:]) if lo.phase is not hi.phase]
        assert ([(b.zeta, b.phase_below) for b in grid.boundaries]
                == [(lo.zeta, lo.phase) for lo, _ in changes])
        for b, (_, hi) in zip(grid.boundaries, changes):
            if b.phase_above is not hi.phase:  # an SP window inside one g step
                assert (b.phase_below, b.phase_above, hi.phase) == (
                    PhaseLabel.NP_NMINUS, PhaseLabel.SP, PhaseLabel.NP_NPLUS)
            if b.phase_below is PhaseLabel.NP_NMINUS:
                edge = g_c
            else:
                assert b.phase_below is PhaseLabel.SP
                try:
                    edge = oracles.fold_gt(b.zeta, omega, omega_a, omega_b)
                except ValueError:  # the oracle resolves no window below 1e-12 g_c
                    edge = g_c
            assert b.g_refined == pytest.approx(edge, rel=1e-9), b

    # omega = 2 puts g_c = sqrt(2) on a double whose square is not omega*omega_a
    @pytest.mark.parametrize("omega", [1.0, 2.0])
    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_cell_exactly_at_critical_coupling(self, omega, side):
        base = ModelParams(omega=omega)
        g_c = critical_coupling(base)
        zeta = closure_estimate(base) * (1.0 + 0.01 * side)
        spec = GridSpec(omega=omega, g_min=0.0, g_max=2.0 * g_c, g_steps=3)
        index, bounds = grid_row(spec, zeta)
        assert spec.g_grid()[1] == g_c
        want = ground_state(spec.params_at(g_c, zeta)).phase
        assert PHASES[index[1]] is want
        if side < 0:
            assert want is PhaseLabel.NP_NMINUS
        elif side > 0:
            assert want is PhaseLabel.NP_NPLUS
        assert [b.g_refined for b in bounds] == [g_c]
        assert bounds[0].phase_below is PhaseLabel.NP_NMINUS

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0, 3.0])
    def test_cell_exactly_at_turning_point(self, zeta):
        g_t = turning_point(ModelParams(), zeta=zeta)
        spec = GridSpec(g_min=0.0, g_max=2.0 * g_t, g_steps=9)
        index, bounds = grid_row(spec, zeta)
        assert spec.g_grid()[4] == g_t
        assert PHASES[index[4]] is PhaseLabel.NP_NPLUS
        assert [b.g_refined for b in bounds if b.phase_below is PhaseLabel.SP] in ([g_t], [])
        # The fold rule: no superradiant root is a ground-state candidate from
        # the computed g_t up, so the solver agrees with the grid there too.
        assert ground_state(spec.params_at(g_t, zeta)).phase is PhaseLabel.NP_NPLUS
        assert ground_state(spec.params_at(g_t * (1 - 1e-14), zeta)).phase is PhaseLabel.SP
        assert ground_state(spec.params_at(g_t * (1 + 1e-14), zeta)).phase is PhaseLabel.NP_NPLUS

    @pytest.mark.parametrize("zeta, above", [(1e-120, PhaseLabel.SP), (1e300, PhaseLabel.NP_NPLUS)])
    def test_extreme_zeta_rows(self, zeta, above):
        # far below and far above the closure coupling, where the scalar
        # solver's cubic overflows; g_t is then ~1.7e120, or absent
        index, bounds = grid_row(GridSpec(g_min=0.5, g_max=3.5, g_steps=4), zeta)
        assert [PHASES[k] for k in index] == [PhaseLabel.NP_NMINUS] + [above] * 3
        assert [(b.g_refined, b.phase_above) for b in bounds] == [(1.0, above)]

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
            GridSpec(g_min=-1.0)
        with pytest.raises(ValueError, match="zeta must be >= 0"):
            GridSpec(zeta_min=-1.0)
        with pytest.raises(ValueError, match="g must be >= 0"):
            SweepSpec(g_min=-1.0)


class TestFoldRule:
    """Sweep rows, ground_state and phase-diagram cells at g_c, at the computed g_t and at closure."""

    @pytest.mark.parametrize("omega, omega_a, omega_b", [(1.0, 1.0, 10.0), (2.0, 0.7, 25.0)])
    def test_sweep_ground_state_and_grid_agree(self, omega, omega_a, omega_b):
        common = dict(omega=omega, omega_a=omega_a, omega_b=omega_b)
        base = ModelParams(**common)
        g_c, closure = critical_coupling(base), closure_estimate(base)
        for zeta in [*(np.linspace(0.02, 0.999, 40) * closure).tolist(), closure]:
            couplings = [g_c]
            with contextlib.suppress(NotFound):
                couplings.append(turning_point(base, zeta=zeta))
            for g in couplings:
                # the middle point of a 3-point grid from 0 to 2 g is g itself
                sweep = SweepSpec(**common, zeta=zeta, g_min=0.0, g_max=2.0 * g, g_steps=3)
                assert sweep.grid()[1] == g
                want = ground_state(sweep.params_at(g)).phase
                assert sweep_g(sweep)[1].phase is want, (zeta, g)
                index, _ = grid_row(GridSpec(**common, g_min=0.0, g_max=2.0 * g, g_steps=3), zeta)
                assert PHASES[index[1]] is want, (zeta, g)
                if g != g_c:  # no superradiant root is a candidate from g_t up
                    assert want is PhaseLabel.NP_NPLUS, zeta


class TestBoundaryTrace:
    def test_reference_rows(self):
        spec = GridSpec(zeta_min=0.0, zeta_max=3.0, zeta_steps=4)
        rows = boundary_trace(spec)
        assert [r.zeta for r in rows] == [0.0, 1.0, 2.0, 3.0]
        assert all(r.g_c == 1.0 for r in rows)
        assert rows[0].g_t is None
        assert rows[1].g_t == pytest.approx(GT_Z1, abs=5e-6)
        assert rows[2].g_t == pytest.approx(1.087827300, abs=5e-6)
        assert rows[3].g_t is not None and rows[3].g_t <= 1.01

    def test_monotone_window(self):
        spec = GridSpec(zeta_min=0.5, zeta_max=2.5, zeta_steps=5)
        gts = [r.g_t for r in boundary_trace(spec)]
        assert all(a > b for a, b in zip(gts, gts[1:]))

    def test_critical_line_flat_in_oscillator(self):
        for wb in (5.0, 10.0, 40.0):
            rows = boundary_trace(GridSpec(omega_b=wb, zeta_min=0.5, zeta_max=2.5, zeta_steps=3))
            assert all(r.g_c == 1.0 for r in rows)


class TestSweepReferee:
    """The array sweep against the sign-scan oracle and one-point solves."""

    @staticmethod
    def _stability(slope):
        return Stability.STABLE if slope > 0.0 else Stability.UNSTABLE

    def _check_row(self, spec, row, g_c, g_t):
        args = (row.g, spec.zeta, spec.omega, spec.omega_a, spec.omega_b)
        by_tag = {e.tag: e for e in row.branches}
        for tag, sign in (("N-", -1), ("N+", +1)):
            if by_tag[tag].stability is not Stability.MARGINAL:
                p0 = oracles.p_of_x(0.0, sign, *args)
                assert by_tag[tag].stability is self._stability(p0), (row.g, tag)
        for sign, tags in ((-1, ("gs-", "gus-")), (+1, ("gus+",))):
            got = [(by_tag[t].observables.n_p, by_tag[t]) for t in tags if t in by_tag]
            if sign < 0 and abs(row.g - g_t) <= 1e-9 * g_t:
                # within rounding of the fold the pair may or may not split;
                # roots, if reported, sit at the merged root A^3 = omega_b g^4/zeta^2
                a_star = (spec.omega_b * row.g**4 / spec.zeta**2) ** (1.0 / 3.0)
                x_star = (a_star**2 - spec.omega_a**2) / (4.0 * row.g**2)
                assert [x for x, _ in got] == pytest.approx([x_star] * len(got), rel=1e-6)
                continue
            expected = oracles.scan_roots(sign, *args, n_points=20_000)
            if row.g == g_c:
                # at g_c a root within rounding of the zero point is no root
                floor = 1e-6 * max([1.0, *expected])
                got = [(x, e) for x, e in got if x > floor]
                expected = [x for x in expected if x > floor]
            assert len(got) == len(expected), (row.g, sign, got, expected)
            for (x, entry), x_ref in zip(got, expected):
                assert x == pytest.approx(x_ref, rel=1e-6, abs=1e-12)
                h = 1e-6 * x
                slope = oracles.p_of_x(x + h, sign, *args) - oracles.p_of_x(x - h, sign, *args)
                assert entry.stability is self._stability(slope), (row.g, sign, x)

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
        common = dict(omega=omega, omega_a=omega_a, omega_b=omega_b)
        specs = [SweepSpec(**common, zeta=z, g_min=0.0, g_max=4.0 * g_c, g_steps=2**k + 1)
                 for z in (0.0, zeta, closure * (1.0 + z_over))]
        specs.append(SweepSpec(**common, zeta=zeta, g_min=math.nextafter(g_t, 0.0),
                               g_max=math.nextafter(g_t, math.inf), g_steps=3))
        for spec in specs:
            rows = sweep_g(spec)
            assert [r.g for r in rows] == spec.grid().tolist()
            assert g_c in [r.g for r in rows] or spec.g_steps == 3
            assert list(rows) == [sweep_row(spec, g) for g in spec.grid().tolist()]
            for row in rows:
                self._check_row(spec, row, g_c, g_t)

        # a roots call prints the values of the sweep row at the same g
        spec = specs[1]
        flags = ["--omega", repr(omega), "--omega-a", repr(omega_a), "--omega-b", repr(omega_b),
                 "--zeta", repr(spec.zeta)]
        g = float(spec.grid()[1])
        sweep_out, roots_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sweep_out):
            assert run(["sweep", "--g", f"{g!r}:{spec.g_max!r}:2", *flags]) == 0
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
