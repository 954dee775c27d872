"""Tridiagonal exact diagonalization of the Rabi limit and its closed forms."""

import math
import warnings

import numpy as np
import pytest

from optodicke import rabi
from optodicke.model import ModelParams
from optodicke.rabi import (
    ConvergenceFailure,
    _block_columns,
    _dominant_tail,
    _eigenpair_residual,
    _radii,
    _sturm_count,
    RabiParams,
    TridiagonalBlock,
    build_blocks,
    compare_columns,
    ground_energy,
    smallest_eigenvalue,
    variational_energy,
)
from optodicke.solver import STABILITIES, find_roots

import oracles

# Dense-diagonalization references (602x602 eigvalsh, n_max = 300), frozen.
ED_REFERENCE = {
    (1.0, 0.5): -0.531745904856,
    (1.0, 1.0): -0.633294235462,
    (1.0, 1.5): -0.825931412689,
    (1.0, 2.0): -1.147945729316,
    (1.0, 3.0): -2.287900675964,
    (0.8, 1.0): -0.653823523186,
    (0.8, 2.0): -1.335724155690,
    (1.2, 1.0): -0.618700344256,
    (1.2, 2.0): -1.041186622050,
}


class TestBlocks:
    def test_hand_values(self):
        plus, minus = build_blocks(RabiParams(g=1.0), 3)
        np.testing.assert_allclose(minus.diag, [-0.5, 1.5, 1.5, 3.5])
        np.testing.assert_allclose(minus.offdiag, [0.5, 0.5 * math.sqrt(2), 0.5 * math.sqrt(3)])
        np.testing.assert_allclose(plus.diag, [0.5, 0.5, 2.5, 2.5])
        assert plus.parity == 1 and minus.parity == -1

    def test_decoupled_limit(self):
        plus, minus = build_blocks(RabiParams(omega=1.0, omega_a=1.0, g=0.0), 10)
        assert np.all(plus.offdiag == 0.0) and np.all(minus.offdiag == 0.0)
        assert min(minus.diag.min(), plus.diag.min()) == -0.5

    @pytest.mark.parametrize("omega,omega_a,g,n_max", [
        (1.0, 1.0, 1.0, 6),
        (0.8, 1.0, 2.3, 8),
        (1.2, 0.7, 0.9, 5),
        (1.0, 1.0, 0.0, 4),
    ])
    def test_spectrum_equals_dense_build(self, omega, omega_a, g, n_max):
        blocks = build_blocks(RabiParams(omega=omega, omega_a=omega_a, g=g), n_max)
        union = np.sort(np.concatenate([np.linalg.eigvalsh(b.dense()) for b in blocks]))
        dense = np.linalg.eigvalsh(oracles.rabi_dense(omega, omega_a, g, n_max))
        np.testing.assert_allclose(union, dense, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_blocks(RabiParams(g=1.0), 1)
        with pytest.raises(ValueError):
            TridiagonalBlock(parity=0, diag=np.zeros(3), offdiag=np.zeros(2))
        with pytest.raises(ValueError):
            TridiagonalBlock(parity=1, diag=np.zeros(3), offdiag=np.zeros(3))
        with pytest.raises(ValueError):
            TridiagonalBlock(parity=1, diag=np.zeros(3), offdiag=np.array([-1.0, 0.0]))

    @pytest.mark.parametrize("field", ["omega", "omega_a", "g"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            RabiParams(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("omega", 0.0), ("omega", 1e-51), ("omega", 1e51), ("omega_a", 1e-300),
        ("omega_a", 1e300), ("g", -1e-300), ("g", 1.0000000000000002e50),
    ])
    def test_outside_domain_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be in \[.*1e\+50\]"):
            RabiParams(**{field: value})

    @pytest.mark.parametrize("omega", [rabi.DOMAIN_MIN, rabi.DOMAIN_MAX])
    @pytest.mark.parametrize("omega_a", [rabi.DOMAIN_MIN, rabi.DOMAIN_MAX])
    def test_domain_corners_solve(self, omega, omega_a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, *columns = compare_columns(RabiParams(omega=omega, omega_a=omega_a),
                                          [0.0, 1e-300, 1.0, rabi.DOMAIN_MAX], n_max=40)
        assert all(np.isfinite(c).all() for c in columns)


class TestSmallestEigenvalue:
    def test_diagonal_block(self):
        _, minus = build_blocks(RabiParams(g=0.0), 20)
        value, residual = smallest_eigenvalue(minus)
        assert value == pytest.approx(-0.5, abs=1e-12)
        assert residual <= 1e-10 * minus.norm_bound()

    def test_two_by_two_closed_form(self):
        block = TridiagonalBlock(parity=1, diag=np.array([0.0, 1.0]), offdiag=np.array([1.0]))
        value, _ = smallest_eigenvalue(block)
        assert value == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        _, minus = build_blocks(RabiParams(g=2.0), 60)
        value, residual = smallest_eigenvalue(minus)
        assert value == pytest.approx(oracles.rabi_dense_ground(1.0, 1.0, 2.0, 60), abs=1e-10)
        assert residual <= 1e-10 * minus.norm_bound()

    def test_malformed_block_fails(self):
        block = TridiagonalBlock(parity=1, diag=np.array([np.nan, 1.0, 2.0]),
                                 offdiag=np.array([0.5, 0.5]))
        with pytest.raises(ConvergenceFailure):
            smallest_eigenvalue(block)


class TestGroundEnergy:
    def test_decoupled(self):
        energy, parity, _, _ = ground_energy(RabiParams(g=0.0), 50)
        assert energy == pytest.approx(-0.5, abs=1e-12)
        assert parity == -1

    @pytest.mark.parametrize("omega,g", sorted(ED_REFERENCE))
    def test_frozen_dense_references(self, omega, g):
        energy, _, residual, _ = ground_energy(RabiParams(omega=omega, g=g), 300)
        assert energy == pytest.approx(ED_REFERENCE[(omega, g)], abs=1e-10)
        assert residual <= 1e-10 * max(abs(energy), 300.0 * omega + g * 20)

    def test_perturbative_bracket(self):
        # second-order perturbation (-0.625) and the variational bound (-0.5)
        # bracket the resonant g=1 answer
        energy = ground_energy(RabiParams(g=1.0), 300)[0]
        assert -0.70 <= energy <= -0.55
        assert energy <= -0.5

    def test_monotone_in_truncation(self):
        energies = [ground_energy(RabiParams(g=3.0), n)[0] for n in (50, 100, 200, 300)]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 5e-12
        assert abs(energies[-1] - energies[-2]) <= 1e-8

    def test_truncation_gap_reported(self):
        result = ground_energy(RabiParams(g=2.0), 300)
        # the plain tuple (energy, parity, residual, truncation_gap) of the n_max = 300 solve
        columns = rabi._ground_rows(1.0, 1.0, np.array([2.0]), 300)
        assert result == tuple(c[0] for c in columns)
        gap = result[3]
        assert gap >= 0.0
        assert gap <= 1e-10


class TestVariationalEnergy:
    def test_flat_below_critical(self):
        for g in (0.0, 0.5, 1.0):
            assert variational_energy(RabiParams(g=g)) == -0.5

    def test_closed_form_above(self):
        assert variational_energy(RabiParams(g=1.5)) == pytest.approx(-0.67361, abs=1e-5)
        assert variational_energy(RabiParams(g=2.0)) == -1.0625

    def test_continuous_at_critical(self):
        for omega in (0.8, 1.0, 1.2):
            g_c = math.sqrt(omega)
            lo = variational_energy(RabiParams(omega=omega, g=g_c))
            hi = variational_energy(RabiParams(omega=omega, g=g_c + 1e-12))
            assert lo == -0.5
            assert hi == pytest.approx(-0.5, abs=1e-11)

    def test_matches_cavity_model_minimum(self):
        # same number as the zeta=0 normal-branch minimum of the N-atom model
        for g in (0.4, 1.2, 2.0, 2.8):
            params = ModelParams(g=g, zeta=0.0, n_atoms=1)
            pts = find_roots(params)[0]
            best = min((e for e, s in zip(pts.energy[0].tolist(), pts.stability[0].tolist())
                        if STABILITIES[s] is not None and STABILITIES[s].value != "unstable"),
                       default=None)
            assert variational_energy(RabiParams(g=g)) == pytest.approx(best, abs=1e-12)


class TestCompareCurve:
    def test_bound_property_and_order(self):
        g, ed, ev, dev = compare_columns(RabiParams(), np.linspace(0.0, 3.0, 31), n_max=300)
        assert g.tolist() == sorted(g.tolist())
        assert np.all(dev >= -1e-8)
        assert np.array_equal(dev, ev - ed)

    def test_deviation_vanishes_at_weak_coupling(self):
        dev = compare_columns(RabiParams(), [0.0, 0.05, 0.1], n_max=200)[3]
        assert abs(dev[0]) <= 1e-10
        assert dev[0] <= dev[1] <= dev[2]
        assert dev[1] <= 5e-4

    def test_deep_coupling_regime(self):
        devs = compare_columns(RabiParams(), np.linspace(2.0, 3.0, 11), n_max=300)[3].tolist()
        # frozen dense-oracle extremes: 0.085446 at g=2 down to 0.010123 at g=3
        assert devs[0] == pytest.approx(0.085446, abs=1e-5)
        assert devs[-1] == pytest.approx(0.010123, abs=1e-5)
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_detuned_presets_keep_bound(self):
        for omega in (0.8, 1.2):
            dev = compare_columns(RabiParams(omega=omega), np.linspace(0.0, 3.0, 16), n_max=300)[3]
            assert np.all(dev >= -1e-8)

    @pytest.mark.parametrize("omega,omega_a", [(1.0, 1.0), (0.8, 1.0), (1.2, 1.0), (0.7, 1.3),
                                               (rabi.DOMAIN_MIN, rabi.DOMAIN_MAX)])
    def test_variational_column_matches_scalar_closed_form(self, omega, omega_a):
        # numpy squares g with a multiply, Python's g**2 calls pow: same bits
        grid = np.concatenate([np.linspace(0.0, 3.0, 61), [math.sqrt(omega * omega_a), 1e-300,
                                                           1e4, rabi.DOMAIN_MAX]])
        columns = compare_columns(RabiParams(omega=omega, omega_a=omega_a), grid, n_max=20)
        g_c = math.sqrt(omega * omega_a)
        for g, (g_row, ed, ev_row, dev) in zip(grid.tolist(), zip(*(c.tolist() for c in columns))):
            ev = (-omega_a / 2.0 if g <= g_c
                  else -(omega / 4.0) * (g**2 / omega**2 + omega_a**2 / g**2))
            assert g_row == g and ev_row == ev
            assert dev == ev - ed

    @pytest.mark.parametrize("grid", [[0.0, -1.0, math.nan], [1.0, math.nan, -1.0],
                                      [math.inf], [2e50, 1.0], [0.0, -1e-300]])
    def test_grid_checked_like_rabi_params(self, grid):
        with pytest.raises(ValueError) as per_point:
            for g in grid:
                RabiParams(g=g)
        with pytest.raises(ValueError) as column:
            compare_columns(RabiParams(), grid, n_max=10)
        assert str(column.value) == str(per_point.value)

    def test_empty_grid(self):
        columns = compare_columns(RabiParams(), [], n_max=10)
        assert len(columns) == 4 and all(c.shape == (0,) for c in columns)

    def test_row_type(self):
        g, ed, ev, dev = compare_columns(RabiParams(), [1.0], n_max=100)
        assert all(c.dtype == np.float64 and c.shape == (1,) for c in (g, ed, ev, dev))
        assert ed[0] == pytest.approx(ED_REFERENCE[(1.0, 1.0)], abs=1e-8)


class TestBatchedKernel:
    @pytest.mark.parametrize("g,n_max", [(1e4, 50), (1e3, 300)])
    def test_strong_coupling_matches_dense_oracle(self, g, n_max):
        # an absolute 1e-12 stop is below the spacing of doubles here
        energy = ground_energy(RabiParams(g=g), n_max)[0]
        ref = oracles.rabi_dense_ground(1.0, 1.0, g, n_max)
        assert energy == pytest.approx(ref, rel=1e-12)

    def test_rows_independent_of_batch(self):
        # each g alone, in the grid, in the reversed grid and next to the
        # strong-coupling point gives the same row, to the bit
        grid = np.linspace(0.0, 3.0, 61)
        for omega in (1.0, 0.8, 1.2):
            params = RabiParams(omega=omega)

            def table(g_values):  # (4, len(g_values)): columns g, ED, variational, deviation
                return np.stack(compare_columns(params, g_values, n_max=300))

            rows = table(grid)
            for k, g in enumerate(grid):
                assert np.array_equal(table([g])[:, 0], rows[:, k])
            assert np.array_equal(table(grid[::-1]), rows[:, ::-1])
            mixed = table([1e4, *grid[::7], 1e4])
            assert np.array_equal(mixed[:, 1:-1], rows[:, ::7])
            strong = table([1e4])[:, 0]
            assert np.array_equal(mixed[:, 0], strong) and np.array_equal(mixed[:, -1], strong)

    def test_long_grid_split_into_batches(self, monkeypatch):
        # 7 g points per batch: 9 batches, the last one short
        grid = np.linspace(0.0, 3.0, 61)
        columns = {omega: compare_columns(RabiParams(omega=omega), grid, n_max=300)
                   for omega in (1.0, 0.8, 1.2)}
        monkeypatch.setattr(rabi, "_BATCH_ENTRIES", 7 * 4 * 301)
        for omega, expected in columns.items():
            got = compare_columns(RabiParams(omega=omega), grid, n_max=300)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_within_dense_oracle_over_grid(self):
        for omega in (0.8, 1.2):
            g, ed, _, _ = compare_columns(RabiParams(omega=omega), np.linspace(0.0, 3.0, 7), 60)
            for g_row, ed_row in zip(g.tolist(), ed.tolist()):
                ref = oracles.rabi_dense_ground(omega, 1.0, g_row, 60)
                assert abs(ed_row - ref) <= 1e-10

    def test_exact_zero_pivot_counts_as_negative(self):
        # g = 1.5, parity -1: at x = -3/4 the second LDL^T pivot is exactly 0
        _, minus = build_blocks(RabiParams(g=1.5), 10)
        count, reach = _sturm_count(minus.diag[:, None], minus.offdiag[:, None],
                                    np.array([[-0.75]]), np.array([np.finfo(float).tiny]), 11)
        below = np.sum(np.linalg.eigvalsh(minus.dense()) < -0.75)
        assert below == 1 and count.tolist() == [[below]]
        assert reach == 11  # tail = n: no early stop, every row read

    def test_counts_match_dense_spectrum(self):
        # the pass ends early at the diagonally dominant tail; the counts must
        # still be those of the whole block at every point up to min(diag)
        diag, off = _block_columns(1.0, 1.0, np.array([0.5, 1.5, 3.0]), 80)
        hi = diag.min(axis=0)
        lo = (diag - _radii(off)).min(axis=0)
        pivmin = np.max(off * off, axis=0, initial=1.0) * np.finfo(float).tiny
        tail = _dominant_tail(diag, _radii(off), hi, pivmin)
        assert tail < 20
        x = lo + (hi - lo) * np.linspace(0.0, 1.0, 41)[:, None]
        counts, reach = _sturm_count(diag, off, x, pivmin, tail)
        assert tail - 1 <= reach < len(diag)
        for j in range(diag.shape[1]):
            block = np.diag(diag[:, j]) + np.diag(off[:, j], 1) + np.diag(off[:, j], -1)
            eig = np.linalg.eigvalsh(block)
            assert counts[:, j].tolist() == [int(np.sum(eig < v)) for v in x[:, j]]

    @pytest.mark.parametrize("error", [1e-6, -1e-6])
    def test_residual_rejects_wrong_eigenvalue(self, error):
        diag, off = _block_columns(1.0, 1.0, np.array([2.0]), 60)
        diag, off = diag[:, :1], off[:, :1]
        dense = TridiagonalBlock(1, diag[:, 0], off[:, 0]).dense()
        exact = np.linalg.eigvalsh(dense)[:1]
        assert _eigenpair_residual(diag, off, exact)[0] <= 1e-10
        with pytest.raises(ConvergenceFailure):
            _eigenpair_residual(diag, off, exact + error)


def _record_sturm_passes(monkeypatch):
    """Trial points and counts of every _sturm_count call."""
    passes = []
    count = rabi._sturm_count

    def recording(diag, offdiag, x, pivmin, tail):
        counts, reach = count(diag, offdiag, x, pivmin, tail)
        passes.append((x.copy(), counts))
        return counts, reach

    monkeypatch.setattr(rabi, "_sturm_count", recording)
    return passes


_DETUNING_GRIDS = [(omega, np.linspace(0.0, 3.0, 61), 300) for omega in (0.8, 1.0, 1.2)]


class TestGuess:
    """The Rayleigh-quotient guess decides the number of Sturm passes, not the result."""

    @pytest.mark.parametrize("omega,g,n_max", _DETUNING_GRIDS + [(1.0, np.array([1e4]), 50)])
    @pytest.mark.parametrize("poor", ["below", "nan", "far"])
    def test_poor_guess_gives_the_same_bits(self, monkeypatch, omega, g, n_max, poor):
        passes = _record_sturm_passes(monkeypatch)
        good = rabi._ground_rows(omega, 1.0, g, n_max)
        good_passes = len(passes)
        guess = rabi._rayleigh_guess

        def poor_guess(diag, offdiag, shift):
            theta, v = guess(diag, offdiag, shift)
            # below: the bracket's lower end; far: past its upper end
            return {"below": shift, "nan": np.full_like(theta, np.nan),
                    "far": theta + 1e3 * (1.0 + np.abs(theta))}[poor], v

        monkeypatch.setattr(rabi, "_rayleigh_guess", poor_guess)
        passes.clear()
        bad = rabi._ground_rows(omega, 1.0, g, n_max)
        for a, b in zip(good, bad):
            assert np.array_equal(a[:, None].view(np.int64), b[:, None].view(np.int64))
        assert len(passes) > good_passes

    def test_pass_counts(self, monkeypatch):
        # 11 and 13 passes with uniform multisection alone
        passes = _record_sturm_passes(monkeypatch)
        rabi._ground_rows(1.0, 1.0, np.linspace(0.0, 3.0, 61), 300)
        assert len(passes) <= 5
        passes.clear()
        ground_energy(RabiParams(g=1e4), 50)
        assert len(passes) <= 8

    @pytest.mark.parametrize("omega,g,n_max", _DETUNING_GRIDS + [
        (1.0, np.array([1e4]), 50), (1.0, np.array([1e3, 1e8]), 300),
        (1e-50, np.array([0.0, 1e-300, 1.0, 1e50]), 40), (1e50, np.array([1.0, 1e50]), 40)])
    def test_certified_bracket(self, monkeypatch, omega, g, n_max):
        # every value is the midpoint of the tightest bracket the counts
        # certify, and that bracket meets the stop of its ends
        passes = _record_sturm_passes(monkeypatch)
        diag, off = _block_columns(omega, 1.0, g, n_max)
        lo, hi, pivmin = rabi._bracket(diag, off)[:3]
        values, _, _ = rabi._lowest_eigenpairs(diag, off)
        for x, counts in passes:
            lo = np.maximum(lo, np.max(np.where(counts == 0, x, -np.inf), axis=0))
            hi = np.minimum(hi, np.min(np.where(counts >= 1, x, np.inf), axis=0))
        stop = np.maximum(np.maximum(1e-12, pivmin), 2.0 * np.finfo(float).eps
                          * np.maximum(np.abs(lo), np.abs(hi)))
        assert np.all(hi - lo <= stop)
        assert np.array_equal(0.5 * (lo + hi), values)

    def test_dense_value_within_the_stop(self):
        rng = np.random.default_rng(20170)
        for _ in range(40):
            omega, omega_a = rng.uniform(0.3, 2.0, size=2)
            n_max = int(rng.integers(2, 80))
            g = rng.uniform(0.0, 4.0, size=3)
            diag, off = _block_columns(omega, omega_a, g, n_max)
            values, _, _ = rabi._lowest_eigenpairs(diag, off)
            for j, value in enumerate(values):
                block = TridiagonalBlock(1, diag[:, j], off[:, j]).dense()
                dense = np.linalg.eigvalsh(block)[0]
                assert abs(dense - value) <= max(1e-12, 2.0 * np.finfo(float).eps * abs(value))


class TestDominantTail:
    @staticmethod
    def _loop_tail(diag, radii, hi, pivmin):
        m = rabi._DOMINANCE
        tail = 0
        for i in range(diag.shape[0]):
            for j in range(diag.shape[1]):
                d, h = float(diag[i, j]), float(hi[j])
                if not d - h - (1.0 + m) * float(radii[i, j]) - m * (abs(d) + abs(h)) > pivmin[j]:
                    tail = i + 1
        return tail

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        omega, omega_a = rng.uniform(0.2, 3.0, size=2)
        g = rng.uniform(0.0, [3.0, 3.0, 30.0, 1e4][seed % 4], size=int(rng.integers(1, 6)))
        diag, off = _block_columns(omega, omega_a, g, int(rng.integers(2, 120)))
        radii = _radii(off)
        hi = diag.min(axis=0)
        pivmin = np.max(off * off, axis=0, initial=1.0) * np.finfo(float).tiny
        assert _dominant_tail(diag, radii, hi, pivmin) == self._loop_tail(diag, radii, hi, pivmin)

    def test_edges(self):
        diag = np.array([[0.0], [10.0], [20.0]])
        radii = np.array([[1.0], [2.0], [1.0]])
        pivmin = np.array([1e-300])
        assert _dominant_tail(diag, radii, np.array([0.0]), pivmin) == 1
        assert _dominant_tail(diag, radii, np.array([-5.0]), pivmin) == 0
        assert _dominant_tail(diag, radii, np.array([19.5]), pivmin) == 3


def _record_kernel_calls(monkeypatch):
    """Column count of every _lowest_eigenpairs call, with its reach."""
    calls = []
    kernel = rabi._lowest_eigenpairs

    def recording(diag, offdiag, *args, **kwargs):
        values, residuals, reach = kernel(diag, offdiag, *args, **kwargs)
        calls.append((diag.shape[1], reach))
        return values, residuals, reach

    monkeypatch.setattr(rabi, "_lowest_eigenpairs", recording)
    return calls


class TestHalfBlocks:
    """The n_max // 2 blocks are solved only where the truncation can show."""

    def test_grid_solves_only_the_full_blocks(self, monkeypatch):
        # no pass reads past row ~30 here, so half and full blocks count alike
        calls = _record_kernel_calls(monkeypatch)
        _, _, _, gap = rabi._ground_rows(1.0, 1.0, np.linspace(0.0, 3.0, 61), 300)
        assert [columns for columns, _ in calls] == [122]
        assert calls[0][1] <= 151
        assert np.all(gap == 0.0)

    @pytest.mark.parametrize("g,n_max", [(1e4, 50), (1e3, 300)])
    def test_gap_at_strong_coupling(self, monkeypatch, g, n_max):
        # the blocks are not dominant past half + 1: one call holds all four
        calls = _record_kernel_calls(monkeypatch)
        gap = ground_energy(RabiParams(g=g), n_max)[3]
        ref = abs(oracles.rabi_dense_ground(1.0, 1.0, g, n_max)
                  - oracles.rabi_dense_ground(1.0, 1.0, g, n_max // 2))
        assert [columns for columns, _ in calls] == [4]
        assert gap == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("g,n_max", [(0.5, 4), (1.5, 20), (3.0, 40)])
    def test_gap_from_second_call(self, monkeypatch, g, n_max):
        # dominant from half + 1 on, but a pass still reads past it
        calls = _record_kernel_calls(monkeypatch)
        gap = ground_energy(RabiParams(g=g), n_max)[3]
        ref = abs(oracles.rabi_dense_ground(1.0, 1.0, g, n_max)
                  - oracles.rabi_dense_ground(1.0, 1.0, g, n_max // 2))
        assert [columns for columns, _ in calls] == [2, 2]
        assert calls[0][1] > max(2, n_max // 2) + 1
        assert gap == pytest.approx(ref, abs=1e-11)

    def test_zero_gap_means_same_brackets(self):
        # where the gap is reported 0 the dense gap is below the bisection stop
        for g in (0.0, 0.5, 1.0, 2.0, 3.0):
            gap = ground_energy(RabiParams(g=g), 60)[3]
            assert gap == 0.0
            ref = abs(oracles.rabi_dense_ground(1.0, 1.0, g, 60)
                      - oracles.rabi_dense_ground(1.0, 1.0, g, 30))
            assert ref <= 1e-11


class TestResidualCut:
    def _block(self, g, n_max):
        diag, off = _block_columns(1.0, 1.0, np.array([g]), n_max)
        diag, off = diag[:, :1], off[:, :1]
        exact = np.linalg.eigvalsh(TridiagonalBlock(1, diag[:, 0], off[:, 0]).dense())[:1]
        return diag, off, exact

    def test_small_reach_grows_the_rows(self, monkeypatch):
        diag, off, exact = self._block(2.0, 300)
        rows = []
        inverse = rabi._inverse_iteration
        monkeypatch.setattr(rabi, "_inverse_iteration",
                            lambda d, *args: rows.append(len(d)) or inverse(d, *args))
        residual = _eigenpair_residual(diag, off, exact, reach=1)
        assert rows[0] == 2 and rows == sorted(rows) and len(rows) >= 3
        assert rows[-1] < 301
        scale = max(TridiagonalBlock(1, diag[:, 0], off[:, 0]).norm_bound(), 1.0)
        assert residual[0] <= 1e-10 * scale

    def test_eigenvalue_of_the_leading_rows_only_is_rejected(self):
        # the leading 8 x 8 block's eigenpair leaves no residual inside those
        # rows, but as a vector of the whole space it leaks t_7 v_7 into row 8
        diag, off, exact = self._block(2.0, 300)
        lead = np.linalg.eigvalsh(TridiagonalBlock(1, diag[:8, 0], off[:7, 0]).dense())[:1]
        assert lead[0] - exact[0] > 1e-5
        assert rabi._inverse_iteration(diag[:8], off[:7], 0.0, lead, np.ones(1))[0] <= 1e-10
        with pytest.raises(ConvergenceFailure):
            _eigenpair_residual(diag, off, lead, reach=4)

    def test_cut_meets_the_target_of_the_whole_block(self):
        diag, off, exact = self._block(2.0, 300)
        assert _eigenpair_residual(diag, off, exact, reach=20)[0] <= 1e-10
        assert _eigenpair_residual(diag, off, exact)[0] <= 1e-10

    @pytest.mark.parametrize("error", [1e-6, -1e-6])
    def test_wrong_eigenvalue_fails_at_every_reach(self, error):
        diag, off, exact = self._block(2.0, 60)
        with pytest.raises(ConvergenceFailure):
            _eigenpair_residual(diag, off, exact + error, reach=3)
