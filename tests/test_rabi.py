"""Tridiagonal exact diagonalization of the Rabi limit and its closed forms."""

import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optodicke import rabi
from optodicke.model import ModelParams
from optodicke.rabi import (
    ConvergenceFailure,
    _Blocks,
    _block_columns,
    _dominant_tail,
    _eigenpair_residual,
    _radii,
    _sturm_count,
    compare_columns,
    ed_couplings,
    ground_energy,
    smallest_eigenvalue,
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


def _scale(diag, off):
    """The residual scale max(1, norm bound) of every column's block, from the oracle."""
    return oracles.gershgorin_bracket(diag, off)[4]


def _whole(diag, off):
    """_Blocks holding every row of the blocks diag, off: they never grow."""
    return _Blocks(diag, off, len(diag), None)


def _parity_columns(omega, g, n_max):
    """The +1 and the -1 block of g at n_max, each as (diag, offdiag), from _block_columns.

    omega and g are in units of omega_a, as the kernel takes them.
    """
    diag, off = _block_columns(omega, np.array([g]), n_max, n_max + 1)
    return [(diag[:, j], off[:, j]) for j in (0, 1)]


def _ratio(rng, wide):
    """omega / omega_a: 10^u with u uniform in the ED's [-100, 100] if wide, else in [0.15, 7]."""
    return 10.0 ** rng.uniform(-100.0, 100.0) if wide else rng.uniform(0.15, 7.0)


class TestBlocks:
    def test_hand_values(self):
        (plus, _), (minus, minus_off) = _parity_columns(1.0, 1.0, 3)
        np.testing.assert_allclose(minus, [-0.5, 1.5, 1.5, 3.5])
        np.testing.assert_allclose(minus_off, [0.5, 0.5 * math.sqrt(2), 0.5 * math.sqrt(3)])
        np.testing.assert_allclose(plus, [0.5, 0.5, 2.5, 2.5])

    def test_decoupled_limit(self):
        (plus, plus_off), (minus, minus_off) = _parity_columns(1.0, 0.0, 10)
        assert np.all(plus_off == 0.0) and np.all(minus_off == 0.0)
        assert min(minus.min(), plus.min()) == -0.5

    @pytest.mark.parametrize("omega,omega_a,g,n_max", [
        (1.0, 1.0, 1.0, 6),
        (0.8, 1.0, 2.3, 8),
        (1.2, 0.7, 0.9, 5),
        (1.0, 1.0, 0.0, 4),
    ])
    def test_spectrum_equals_dense_build(self, omega, omega_a, g, n_max):
        # the package's blocks, in units of omega_a, are the oracle's d_n and
        # t_n, and their spectra together are the Kronecker-built matrix's
        omega, g = omega / omega_a, g / omega_a
        blocks = _parity_columns(omega, g, n_max)
        for (diag, off), parity in zip(blocks, (1, -1)):
            want = oracles.rabi_parity_block(omega, 1.0, g, n_max, parity)
            np.testing.assert_allclose(diag, want[0], rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(off, want[1], rtol=1e-15, atol=0.0)
        union = np.sort(np.concatenate([np.linalg.eigvalsh(oracles.tridiagonal_dense(*b))
                                        for b in blocks]))
        dense = np.linalg.eigvalsh(oracles.rabi_dense(omega, 1.0, g, n_max))
        np.testing.assert_allclose(union, dense, atol=1e-12)

    def test_validation(self):
        # fewer than 3 Fock states is no truncation of the Rabi model
        with pytest.raises(ValueError, match="n_max must be >= 2"):
            ground_energy(ModelParams(g=1.0), 1)
        with pytest.raises(ValueError, match="n_max must be >= 2"):
            compare_columns(ModelParams(), [1.0], n_max=1)

    @pytest.mark.parametrize("field", ["omega", "omega_a", "g"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, field, value):
        # ModelParams rejects a non-finite frequency, ed_couplings a non-finite g
        fields, g = ({}, value) if field == "g" else ({field: value}, 1.0)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ed_couplings(ModelParams(**fields), [g])

    @pytest.mark.parametrize("field, value", [
        ("omega", 0.0), ("omega", 1e-51), ("omega", 1e51), ("omega_a", 1e-300),
        ("omega_a", 1e300), ("g", -1e-300), ("g", 1.0000000000000002e50),
        ("zeta", 1e-300), ("zeta", 1.0), ("n_atoms", 2),
    ])
    def test_outside_domain_rejected(self, field, value):
        # every entry of the ED checks its input with ModelParams and ed_couplings
        fields, g = ({}, value) if field == "g" else ({field: value}, 1.0)
        message = (rf"^{field} must be (> 0|>= 0|<= 1e\+150|in \[(0|1e-50), 1e\+50\]"
                   r"|0 for the Rabi ED|1 for the one-atom \(Rabi\) ED),")
        for solve in (lambda: ed_couplings(ModelParams(**fields), [g]),
                      lambda: compare_columns(ModelParams(**fields), [0.0, g], n_max=10),
                      lambda: ground_energy(ModelParams(**fields, g=g), 10),
                      lambda: smallest_eigenvalue(ModelParams(**fields, g=g), 1, 10)):
            with pytest.raises(ValueError, match=message):
                solve()

    @pytest.mark.parametrize("omega", [rabi.DOMAIN_MIN, rabi.DOMAIN_MAX])
    @pytest.mark.parametrize("omega_a", [rabi.DOMAIN_MIN, rabi.DOMAIN_MAX])
    def test_domain_corners_solve(self, omega, omega_a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, *columns = compare_columns(ModelParams(omega=omega, omega_a=omega_a),
                                          [0.0, 1e-300, 1.0, rabi.DOMAIN_MAX], n_max=40)
        assert all(np.isfinite(c).all() for c in columns)

    @pytest.mark.parametrize("omega", [rabi.DOMAIN_MIN, 1.0, rabi.DOMAIN_MAX])
    @pytest.mark.parametrize("omega_a", [rabi.DOMAIN_MIN, 1.0, rabi.DOMAIN_MAX])
    def test_lattice_depth_fits_the_indices(self, monkeypatch, omega, omega_a):
        # a bracket enters its lattice at most a 16th of max(1, |lo|, |hi|)
        # wide, and a cell is about eps |lo| / 2 or 1e-12 / 2 wide: at most
        # 2^50 cells, far inside the int64 indices
        depths = []
        depth = rabi._lattice_depth
        monkeypatch.setattr(rabi, "_lattice_depth",
                            lambda *args: depths.append(depth(*args)) or depths[-1])
        compare_columns(ModelParams(omega=omega, omega_a=omega_a),
                        [0.0, 1e-300, 1e-20, 1.0, 1e10, rabi.DOMAIN_MAX], n_max=40)
        assert depths and max(d.max() for d in depths) <= 50

    def test_energies_scale_with_the_frequencies(self):
        # the ED solves in units of omega_a: scaling omega, omega_a and g by s
        # scales every energy by s, and the variational bound holds at every s
        rng = np.random.default_rng(2017)
        for _ in range(12):
            omega = 10.0 ** rng.uniform(-1.0, 1.0)
            g = np.sort(rng.uniform(0.0, 4.0 * math.sqrt(omega), size=int(rng.integers(1, 12))))
            n_max = int(rng.integers(10, 200))
            energy = compare_columns(ModelParams(omega=omega), g, n_max=n_max)[1]
            ground = ground_energy(ModelParams(omega=omega, g=g[-1]), n_max)
            for s in (1e-40, 1e-20, 1e-6, 1e20, 1e40):
                params = ModelParams(omega=omega * s, omega_a=s, g=g[-1] * s)
                _, ed, _, deviation = compare_columns(params, g * s, n_max=n_max)
                assert np.all(np.abs(ed / s - energy) <= 1e-12 * np.abs(energy))
                assert np.all(deviation >= -1e-9 * np.abs(ed))
                scaled = ground_energy(params, n_max)
                assert scaled[0] / s == pytest.approx(ground[0], rel=1e-12)
                assert scaled[1] == ground[1]
                plus = smallest_eigenvalue(params, 1, n_max)[0]
                assert plus / s == pytest.approx(
                    smallest_eigenvalue(ModelParams(omega=omega, g=g[-1]), 1, n_max)[0], rel=1e-12)

    def test_small_frequencies_give_the_energies_of_unit_frequencies(self):
        # at omega = omega_a = 1e-20 the absolute stop 1e-12 used to swallow
        # the spectrum, and the ED broke the variational bound with exit 0
        _, ed, _, deviation = compare_columns(ModelParams(omega=1e-20, omega_a=1e-20),
                                              np.linspace(0.0, 3e-20, 7), n_max=300)
        unit = compare_columns(ModelParams(), np.linspace(0.0, 3.0, 7), n_max=300)[1]
        assert ed[-1] == pytest.approx(-2.28790068e-20, rel=1e-9)
        assert ed / 1e-20 == pytest.approx(unit, rel=1e-12)
        assert np.all(deviation >= 0.0)


class TestSmallestEigenvalue:
    def test_diagonal_block(self):
        value, residual = smallest_eigenvalue(ModelParams(g=0.0), -1, 20)
        assert value == pytest.approx(-0.5, abs=1e-12)
        diag, off = oracles.rabi_parity_block(1.0, 1.0, 0.0, 20, -1)
        assert residual <= 1e-10 * _scale(diag[:, None], off[:, None])[0]

    def test_two_by_two_closed_form(self):
        # the kernel on a whole block, from the oracle's bracket
        diag, off = np.array([[0.0], [1.0]]), np.array([[1.0]])
        bracket = oracles.gershgorin_bracket(diag, off)
        values, _ = rabi._lowest_eigenpairs(_whole(diag, off), bracket)
        assert values[0] == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        value, residual = smallest_eigenvalue(ModelParams(g=2.0), -1, 60)
        assert value == pytest.approx(oracles.rabi_dense_ground(1.0, 1.0, 2.0, 60), abs=1e-10)
        diag, off = oracles.rabi_parity_block(1.0, 1.0, 2.0, 60, -1)
        assert residual <= 1e-10 * _scale(diag[:, None], off[:, None])[0]

    @pytest.mark.parametrize("omega,omega_a,g,n_max", [
        (1.0, 1.0, 0.0, 2), (1.0, 1.0, 1.0, 3), (0.8, 1.0, 2.3, 40), (1.2, 0.7, 0.9, 25),
        (1.0, 1.0, 3.0, 300), (0.3, 2.0, 5.0, 120), (1.0, 1.0, 1e4, 50)])
    def test_each_parity_matches_its_dense_block(self, omega, omega_a, g, n_max):
        params = ModelParams(omega=omega, omega_a=omega_a, g=g)
        values = []
        for parity in (1, -1):
            value, residual = smallest_eigenvalue(params, parity, n_max)
            diag, off = oracles.rabi_parity_block(omega, omega_a, g, n_max, parity)
            dense = np.linalg.eigvalsh(oracles.tridiagonal_dense(diag, off))[0]
            assert value == pytest.approx(dense, rel=1e-12, abs=1e-11)
            assert residual <= 1e-10 * _scale(diag[:, None], off[:, None])[0]
            values.append(value)
        # the smaller parity is the ground state, to the bit
        assert min(values) == ground_energy(params, n_max)[0]

    def test_validation(self):
        for parity in (0, 2, -2):
            with pytest.raises(ValueError, match="parity"):
                smallest_eigenvalue(ModelParams(g=1.0), parity, 10)
        for n_max in (1, 0, -3):
            with pytest.raises(ValueError, match="n_max must be >= 2"):
                smallest_eigenvalue(ModelParams(g=1.0), 1, n_max)


class TestGroundEnergy:
    def test_decoupled(self):
        energy, parity, _, _ = ground_energy(ModelParams(g=0.0), 50)
        assert energy == pytest.approx(-0.5, abs=1e-12)
        assert parity == -1

    @pytest.mark.parametrize("omega,g", sorted(ED_REFERENCE))
    def test_frozen_dense_references(self, omega, g):
        energy, _, residual, _ = ground_energy(ModelParams(omega=omega, g=g), 300)
        assert energy == pytest.approx(ED_REFERENCE[(omega, g)], abs=1e-10)
        assert residual <= 1e-10 * max(abs(energy), 300.0 * omega + g * 20)

    def test_perturbative_bracket(self):
        # second-order perturbation (-0.625) and the variational bound (-0.5)
        # bracket the resonant g=1 answer
        energy = ground_energy(ModelParams(g=1.0), 300)[0]
        assert -0.70 <= energy <= -0.55
        assert energy <= -0.5

    def test_monotone_in_truncation(self):
        energies = [ground_energy(ModelParams(g=3.0), n)[0] for n in (50, 100, 200, 300)]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 5e-12
        assert abs(energies[-1] - energies[-2]) <= 1e-8

    def test_truncation_gap_reported(self):
        result = ground_energy(ModelParams(g=2.0), 300)
        # the plain tuple (energy, parity, residual) of the n_max = 300 solve,
        # and the truncation gap to the n_max = 150 solve
        full, half = (rabi._ground_rows(1.0, np.array([2.0]), n) for n in (300, 150))
        assert result == (*(c[0] for c in full), abs(full[0][0] - half[0][0]))
        gap = result[3]
        assert gap >= 0.0
        assert gap <= 1e-10


def _variational(g, omega=1.0):
    """The variational energy at one g, omega_a = 1, from compare_columns."""
    return float(compare_columns(ModelParams(omega=omega), [g], n_max=2)[2][0])


class TestVariationalEnergy:
    def test_flat_below_critical(self):
        for g in (0.0, 0.5, 1.0):
            assert _variational(g) == -0.5

    def test_closed_form_above(self):
        assert _variational(1.5) == pytest.approx(-0.67361, abs=1e-5)
        assert _variational(2.0) == -1.0625

    def test_continuous_at_critical(self):
        for omega in (0.8, 1.0, 1.2):
            g_c = math.sqrt(omega)
            lo = _variational(g_c, omega)
            hi = _variational(g_c + 1e-12, omega)
            assert lo == -0.5
            assert hi == pytest.approx(-0.5, abs=1e-11)

    def test_matches_cavity_model_minimum(self):
        # same number as the zeta=0 normal-branch minimum of the N-atom model
        for g in (0.4, 1.2, 2.0, 2.8):
            params = ModelParams(g=g, zeta=0.0, n_atoms=1)
            pts = find_roots(params)  # columns 0-2 are the normal branch
            best = min((e for e, s in zip(pts.energy[0, :3].tolist(), pts.stability[0, :3].tolist())
                        if STABILITIES[s] is not None and STABILITIES[s].value != "unstable"),
                       default=None)
            assert _variational(g) == pytest.approx(best, abs=1e-12)


class TestCompareCurve:
    def test_bound_property_and_order(self):
        g, ed, ev, dev = compare_columns(ModelParams(), np.linspace(0.0, 3.0, 31), n_max=300)
        assert g.tolist() == sorted(g.tolist())
        assert np.all(dev >= -1e-8)
        assert np.array_equal(dev, ev - ed)

    def test_deviation_vanishes_at_weak_coupling(self):
        dev = compare_columns(ModelParams(), [0.0, 0.05, 0.1], n_max=200)[3]
        assert abs(dev[0]) <= 1e-10
        assert dev[0] <= dev[1] <= dev[2]
        assert dev[1] <= 5e-4

    def test_deep_coupling_regime(self):
        devs = compare_columns(ModelParams(), np.linspace(2.0, 3.0, 11), n_max=300)[3].tolist()
        # frozen dense-oracle extremes: 0.085446 at g=2 down to 0.010123 at g=3
        assert devs[0] == pytest.approx(0.085446, abs=1e-5)
        assert devs[-1] == pytest.approx(0.010123, abs=1e-5)
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_detuned_presets_keep_bound(self):
        for omega in (0.8, 1.2):
            dev = compare_columns(ModelParams(omega=omega), np.linspace(0.0, 3.0, 16), n_max=300)[3]
            assert np.all(dev >= -1e-8)

    @pytest.mark.parametrize("omega,omega_a", [(1.0, 1.0), (0.8, 1.0), (1.2, 1.0), (0.7, 1.3),
                                               (rabi.DOMAIN_MIN, rabi.DOMAIN_MAX)])
    def test_variational_column_matches_scalar_closed_form(self, omega, omega_a):
        # numpy squares g with a multiply, Python's g**2 calls pow: same bits
        grid = np.concatenate([np.linspace(0.0, 3.0, 61), [math.sqrt(omega * omega_a), 1e-300,
                                                           1e4, rabi.DOMAIN_MAX]])
        columns = compare_columns(ModelParams(omega=omega, omega_a=omega_a), grid, n_max=20)
        g_c = math.sqrt(omega * omega_a)
        for g, (g_row, ed, ev_row, dev) in zip(grid.tolist(), zip(*(c.tolist() for c in columns))):
            ev = (-omega_a / 2.0 if g <= g_c
                  else -(omega / 4.0) * (g**2 / omega**2 + omega_a**2 / g**2))
            assert g_row == g and ev_row == ev
            assert dev == ev - ed

    @pytest.mark.parametrize("grid, message", [
        ([0.0, -1.0, math.nan], "g must be finite, got nan"),
        ([1.0, math.nan, -1.0], "g must be finite, got nan"),
        ([math.inf], "g must be finite, got inf"),
        ([2e50, 1.0], "g must be in [0, 1e+50], got 2e+50"),
        ([0.0, -1e-300], "g must be >= 0, got -1e-300"),
    ], ids=[f"grid{i}" for i in range(5)])
    def test_grid_checked_at_its_ends(self, grid, message):
        # the smallest and the largest g decide, as ModelParams and the ED's bound judge them
        for solve in (ed_couplings, partial(compare_columns, n_max=10)):
            with pytest.raises(ValueError) as error:
                solve(ModelParams(), grid)
            assert str(error.value) == message

    def test_empty_grid(self):
        columns = compare_columns(ModelParams(), [], n_max=10)
        assert len(columns) == 4 and all(c.shape == (0,) for c in columns)

    def test_row_type(self):
        g, ed, ev, dev = compare_columns(ModelParams(), [1.0], n_max=100)
        assert all(c.dtype == np.float64 and c.shape == (1,) for c in (g, ed, ev, dev))
        assert ed[0] == pytest.approx(ED_REFERENCE[(1.0, 1.0)], abs=1e-8)


def _braak_ground(omega, g, guess):
    """Braak's exact ground energy, checked to be the lowest zero of either G on (-delta, 1)."""
    energy, x, delta, c = oracles.braak_ground(omega, 1.0, g, guess)
    # no pole below 1 but x = 0, and neither G changes sign on (-delta, x)
    assert -delta < x < 1
    assert not any(oracles.braak_sign_changes(sign, delta, c, -delta, x) for sign in (1, -1))
    return float(energy)


class TestBraakReferee:
    """The ED against the zeros of Braak's G-function, which need no Fock truncation."""

    @pytest.mark.parametrize("omega", [0.8, 1.0, 1.2])
    def test_matches_the_exact_spectrum(self, omega):
        # below, at and above g_c = sqrt(omega), and deep in the superradiant regime
        for g in (0.5 * math.sqrt(omega), math.sqrt(omega), 2.0, 3.0):
            energy = ground_energy(ModelParams(omega=omega, g=g), 300)[0]
            assert abs(energy - _braak_ground(omega, g, energy)) <= 1e-12 * max(1.0, abs(energy))

    @pytest.mark.parametrize("omega,g,n_max", [(1.0, 2.0, 8), (1.0, 3.0, 12), (0.8, 2.5, 16),
                                               (1.2, 3.0, 10)])
    def test_truncation_error_within_the_gap(self, omega, g, n_max):
        # a truncated block's ground energy lies above the exact one (its
        # error here is far above the bisection stop), by at most the gap
        energy, _, _, gap = ground_energy(ModelParams(omega=omega, g=g), n_max)
        assert 0.0 < energy - _braak_ground(omega, g, energy) <= gap


class TestBatchedKernel:
    @pytest.mark.parametrize("g,n_max", [(1e4, 50), (1e3, 300)])
    def test_strong_coupling_matches_dense_oracle(self, g, n_max):
        # an absolute 1e-12 stop is below the spacing of doubles here
        energy = ground_energy(ModelParams(g=g), n_max)[0]
        ref = oracles.rabi_dense_ground(1.0, 1.0, g, n_max)
        assert energy == pytest.approx(ref, rel=1e-12)

    def test_rows_independent_of_batch(self):
        # each g alone, in the grid, in the reversed grid and next to the
        # strong-coupling point gives the same row, to the bit
        grid = np.linspace(0.0, 3.0, 61)
        for omega in (1.0, 0.8, 1.2):
            params = ModelParams(omega=omega)

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
        columns = {omega: compare_columns(ModelParams(omega=omega), grid, n_max=300)
                   for omega in (1.0, 0.8, 1.2)}
        calls = _record_kernel_calls(monkeypatch)
        for omega, expected in columns.items():
            rows = rabi._parity_tail(omega, grid, 300)[3] + rabi._GUESS_ROWS + 1
            monkeypatch.setattr(rabi, "_BATCH_ENTRIES", 7 * 2 * rows)
            calls.clear()
            got = compare_columns(ModelParams(omega=omega), grid, n_max=300)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
            assert [width for width, _ in calls] == [14] * 8 + [10]

    @pytest.mark.parametrize("n_max", [300, 3000, 30000])
    def test_batches_by_rows_read(self, monkeypatch, n_max):
        # every pass stops near row 30, so the 61-point grid is one batch at any n_max
        calls = _record_kernel_calls(monkeypatch)
        compare_columns(ModelParams(), np.linspace(0.0, 3.0, 61), n_max=n_max)
        assert [columns for columns, _ in calls] == [122]

    def test_strong_coupling_batches_stay_bounded(self, monkeypatch):
        # no row is dominant: each batch builds all n_max + 1 rows of its blocks
        calls = _record_kernel_calls(monkeypatch)
        compare_columns(ModelParams(), np.linspace(0.0, 1e4, 61), n_max=3000)
        assert len(calls) > 1 and sum(columns for columns, _ in calls) == 122
        assert all(columns * 3001 <= rabi._BATCH_ENTRIES for columns, _ in calls)

    def test_within_dense_oracle_over_grid(self):
        for omega in (0.8, 1.2):
            g, ed, _, _ = compare_columns(ModelParams(omega=omega), np.linspace(0.0, 3.0, 7), 60)
            for g_row, ed_row in zip(g.tolist(), ed.tolist()):
                ref = oracles.rabi_dense_ground(omega, 1.0, g_row, 60)
                assert abs(ed_row - ref) <= 1e-10

    def test_exact_zero_pivot_counts_as_negative(self):
        # g = 1.5, parity -1: at x = -3/4 the second LDL^T pivot is exactly 0
        _, (diag, off) = _parity_columns(1.0, 1.5, 10)
        count, reach = _sturm_count(_whole(diag[:, None], off[:, None]),
                                    np.array([[-0.75]]), np.array([np.finfo(float).tiny]), 11)
        below = np.sum(np.linalg.eigvalsh(oracles.tridiagonal_dense(diag, off)) < -0.75)
        assert below == 1 and count.tolist() == [[below]]
        assert reach == 11  # tail = n: no early stop, every row read

    def test_counts_match_dense_spectrum(self):
        # the pass ends early at the diagonally dominant tail; the counts must
        # still be those of the whole block at every point up to min(diag)
        diag, off = _block_columns(1.0, np.array([0.5, 1.5, 3.0]), 80, 81)
        hi = diag.min(axis=0)
        lo = (diag - _radii(off)).min(axis=0)
        pivmin = np.max(off * off, axis=0, initial=1.0) * np.finfo(float).tiny
        tail = _dominant_tail(diag, _radii(off), hi, pivmin)
        assert tail < 20
        x = lo + (hi - lo) * np.linspace(0.0, 1.0, 41)[:, None]
        counts, reach = _sturm_count(_whole(diag, off), x, pivmin, tail)
        assert tail - 1 <= reach < len(diag)
        for j in range(diag.shape[1]):
            eig = np.linalg.eigvalsh(oracles.tridiagonal_dense(diag[:, j], off[:, j]))
            assert counts[:, j].tolist() == [int(np.sum(eig < v)) for v in x[:, j]]

    @pytest.mark.parametrize("error", [1e-6, -1e-6])
    def test_residual_rejects_wrong_eigenvalue(self, error):
        diag, off = _block_columns(1.0, np.array([2.0]), 60, 61)
        diag, off = diag[:, :1], off[:, :1]
        exact = np.linalg.eigvalsh(oracles.tridiagonal_dense(diag[:, 0], off[:, 0]))[:1]
        whole = (len(diag), [], _scale(diag, off))  # reach n: every row
        assert _eigenpair_residual(_whole(diag, off), exact, *whole)[0] <= 1e-10
        with pytest.raises(ConvergenceFailure):
            _eigenpair_residual(_whole(diag, off), exact + error, *whole)


def _record_sturm_passes(monkeypatch):
    """Trial points and counts of every _sturm_count call."""
    passes = []
    count = rabi._sturm_count

    def recording(blocks, x, pivmin, tail):
        counts, reach = count(blocks, x, pivmin, tail)
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
        good = rabi._ground_rows(omega, g, n_max)
        good_passes = len(passes)
        guess = rabi._rayleigh_guess

        def poor_guess(diag, offdiag, shift):
            theta, v = guess(diag, offdiag, shift)
            # below: the bracket's lower end; far: past its upper end
            return {"below": shift, "nan": np.full_like(theta, np.nan),
                    "far": theta + 1e3 * (1.0 + np.abs(theta))}[poor], v

        monkeypatch.setattr(rabi, "_rayleigh_guess", poor_guess)
        passes.clear()
        bad = rabi._ground_rows(omega, g, n_max)
        for a, b in zip(good, bad):
            assert np.array_equal(a[:, None].view(np.int64), b[:, None].view(np.int64))
        assert len(passes) > good_passes

    def test_pass_counts(self, monkeypatch):
        # 11 and 13 passes with uniform multisection alone; rows built on
        # demand add none.  Two coarse passes, then one ladder pass.
        passes = _record_sturm_passes(monkeypatch)
        for n_max in (300, 3000):
            passes.clear()
            rabi._ground_rows(1.0, np.linspace(0.0, 3.0, 61), n_max)
            assert len(passes) == 3
        # the two solves of ground_energy(ModelParams(g=1e4), 50): at n_max 25
        # rounding puts one guess 2 to 16 cells below the eigenvalue, and a
        # uniform pass over the 14 cells between the ladder's +2 and +16 rungs
        # finds its cell
        for n_max, count in ((50, 3), (25, 4)):
            passes.clear()
            rabi._ground_rows(1.0, np.array([1e4]), n_max)
            assert len(passes) == count

    @pytest.mark.parametrize("omega,g_max,points,n_max,count", [
        (1.0, 10.0, 61, 300, 4), (1.0, 30.0, 61, 1000, 4), (0.5, 30.0, 61, 300, 4),
        (1.0, 60.0, 11, 3000, 5)])
    def test_second_guess_at_strong_coupling(self, monkeypatch, omega, g_max, points, n_max,
                                             count):
        # a bracket a 16th of the eigenvalue wide leaves the first guess many
        # cells above it; the ladder below the guess moves the lower end to
        # within 32 times that distance, and the guess shifted there lands
        passes = _record_sturm_passes(monkeypatch)
        guesses = []
        guess = rabi._rayleigh_guess
        monkeypatch.setattr(rabi, "_rayleigh_guess",
                            lambda *args: guesses.append(1) or guess(*args))
        rabi._ground_rows(omega, np.linspace(0.0, g_max, points), n_max)
        assert (len(passes), len(guesses)) == (count, 2)

    @pytest.mark.parametrize("omega,g,n_max", _DETUNING_GRIDS)
    def test_no_pass_repeats_one_point(self, monkeypatch, omega, g, n_max):
        # a column that enters its lattice while another is still coarse
        # counts lattice points, not 15 copies of its anchor; only the g = 0
        # columns, whose brackets are exact from the start, repeat one point
        passes = _record_sturm_passes(monkeypatch)
        rabi._ground_rows(omega, g, n_max)
        for x, _ in passes:
            assert np.flatnonzero((x == x[0]).all(axis=0)).tolist() == [0, len(g)]

    @pytest.mark.parametrize("omega,g,n_max", _DETUNING_GRIDS)
    def test_guess_vectors_meet_the_residual_target(self, monkeypatch, omega, g, n_max):
        # the guess covers the ladder pass: no column needs inverse iteration
        calls = []
        inverse = rabi._inverse_iteration
        monkeypatch.setattr(rabi, "_inverse_iteration",
                            lambda d, *args: calls.append(d.shape) or inverse(d, *args))
        rabi._ground_rows(omega, g, n_max)
        assert calls == []

    @pytest.mark.parametrize("omega,g,n_max", _DETUNING_GRIDS + [
        (1.0, np.array([1e4]), 50), (1.0, np.array([1e3, 1e8]), 300),
        (1e-50, np.array([0.0, 1e-300, 1.0, 1e50]), 40), (1e50, np.array([1.0, 1e50]), 40)])
    def test_certified_bracket(self, monkeypatch, omega, g, n_max):
        # every value is the midpoint of the tightest bracket the counts
        # certify, and that bracket meets the stop of its ends
        passes = _record_sturm_passes(monkeypatch)
        lo, hi, pivmin = oracles.gershgorin_bracket(
            *_block_columns(omega, g, n_max, n_max + 1))[:3]
        values = rabi._parity_rows(omega, g, n_max)[0].reshape(-1)
        for x, counts in passes:
            lo = np.maximum(lo, np.max(np.where(counts == 0, x, -np.inf), axis=0))
            hi = np.minimum(hi, np.min(np.where(counts >= 1, x, np.inf), axis=0))
        stop = np.maximum(np.maximum(1e-12, pivmin), 2.0 * np.finfo(float).eps
                          * np.maximum(np.abs(lo), np.abs(hi)))
        assert np.all(hi - lo <= stop)
        assert np.array_equal(0.5 * (lo + hi), values)

    def test_dense_value_within_the_stop(self):
        # omega / omega_a over the ED's whole domain and g up to 4 g_c, in
        # units of omega_a; there a dense eigvalsh errs by eps times norms up
        # to 1e102, so 150-digit Sturm counts of the whole block are the
        # referee: its smallest eigenvalue lies within the stop of the value
        rng = np.random.default_rng(20170)
        for i in range(40):
            omega = _ratio(rng, i % 2)
            n_max = int(rng.integers(2, 80))
            g = rng.uniform(0.0, 4.0, size=3) * math.sqrt(omega)
            values = rabi._parity_rows(omega, g, n_max)[0]
            for parity, row in zip((1, -1), values):
                for g_j, value in zip(g.tolist(), row.tolist()):
                    block = oracles.rabi_parity_block(omega, 1.0, g_j, n_max, parity)
                    stop = max(1e-12, 2.0 * np.finfo(float).eps * abs(value))
                    assert oracles.count_at_or_below(*block, value - stop) == 0
                    assert oracles.count_at_or_below(*block, value + stop) >= 1


class TestDominantTail:
    def test_oracle_margin(self):
        assert oracles.DOMINANCE == rabi._DOMINANCE

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        omega = _ratio(rng, seed % 2)
        g = rng.uniform(0.0, [3.0, 3.0, 30.0, 1e4][seed % 4], size=int(rng.integers(1, 6)))
        g *= math.sqrt(omega)
        n_max = int(rng.integers(2, 120))
        diag, off = _block_columns(omega, g, n_max, n_max + 1)
        radii = _radii(off)
        hi = diag.min(axis=0)
        pivmin = np.max(off * off, axis=0, initial=1.0) * np.finfo(float).tiny
        loop = oracles.dominant_tail(diag, radii, hi, pivmin)
        assert _dominant_tail(diag, radii, hi, pivmin) == loop

    def test_edges(self):
        diag = np.array([[0.0], [10.0], [20.0]])
        radii = np.array([[1.0], [2.0], [1.0]])
        pivmin = np.array([1e-300])
        assert _dominant_tail(diag, radii, np.array([0.0]), pivmin) == 1
        assert _dominant_tail(diag, radii, np.array([-5.0]), pivmin) == 0
        assert _dominant_tail(diag, radii, np.array([19.5]), pivmin) == 3


_FREQUENCIES = st.one_of(st.sampled_from([rabi.DOMAIN_MIN, 1.0, rabi.DOMAIN_MAX]),
                         st.floats(0.3, 3.0),
                         st.floats(-50.0, 50.0).map(lambda e: min(max(10.0**e, 1e-50), 1e50)))
_COUPLINGS = st.one_of(st.sampled_from([0.0, 1.0, rabi.DOMAIN_MAX]),
                       st.floats(-300.0, 50.0).map(lambda e: min(10.0**e, 1e50)),
                       st.floats(0.0, 6.0))


class TestLeadingRows:
    """_ground_rows reads the blocks' structure and builds only the rows it reads."""

    @settings(max_examples=60, deadline=None)
    @given(omega=_FREQUENCIES, omega_a=_FREQUENCIES,
           n_max=st.one_of(st.integers(2, 40), st.integers(2, 400)),
           g=st.lists(_COUPLINGS, min_size=1, max_size=6), repeat=st.booleans(),
           guess_rows=st.sampled_from([1, rabi._GUESS_ROWS]))
    def test_matches_the_whole_blocks(self, omega, omega_a, n_max, g, repeat, guess_rows):
        # the bracket passed to the kernel is the oracle's on all rows, and
        # building every row gives the same bits; a guess on the tail's rows
        # alone makes the passes and the residual grow the rows.  The kernel
        # takes omega / omega_a, here anywhere from 1e-100 to 1e100
        omega, g = omega / omega_a, np.array(g + g[:1] if repeat else g) / omega_a
        brackets = []
        kernel, columns = rabi._lowest_eigenpairs, rabi._block_columns
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rabi, "_GUESS_ROWS", guess_rows)
            patch.setattr(rabi, "_lowest_eigenpairs", lambda blocks, bracket: brackets.append(
                bracket) or kernel(blocks, bracket))
            rows = rabi._ground_rows(omega, g, n_max)
            patch.setattr(rabi, "_block_columns", lambda omega, g, n_max, rows:
                          columns(omega, g, n_max, n_max + 1))
            whole = rabi._ground_rows(omega, g, n_max)
        for a, b in zip(rows, whole):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        expected = oracles.gershgorin_bracket(*_block_columns(omega, g, n_max, n_max + 1))
        assert brackets[0][3] == expected[3]
        for got, want in zip(brackets[0][:3] + brackets[0][4:], expected[:3] + expected[4:]):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_memory_tracks_the_rows_read(self):
        # every pass stops near row 30 at any truncation
        peaks = []
        for n_max in (300, 3000, 30000):
            tracemalloc.start()
            try:
                rabi._ground_rows(1.0, np.linspace(0.0, 3.0, 61), n_max)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks[1:]) <= 2 * peaks[0]


def _record_kernel_calls(monkeypatch):
    """Column count of every _lowest_eigenpairs call, with the largest reach of its passes."""
    calls = []
    kernel, count = rabi._lowest_eigenpairs, rabi._sturm_count

    def recording(blocks, *args, **kwargs):
        calls.append([blocks.diag.shape[1], 0])
        return kernel(blocks, *args, **kwargs)

    def counting(blocks, x, pivmin, tail):
        counts, reach = count(blocks, x, pivmin, tail)
        calls[-1][1] = max(calls[-1][1], reach)
        return counts, reach

    monkeypatch.setattr(rabi, "_lowest_eigenpairs", recording)
    monkeypatch.setattr(rabi, "_sturm_count", counting)
    return calls


class TestHalfBlocks:
    """One kernel call per truncation: rabi-compare solves n_max, ground_energy also half."""

    def test_grid_solves_only_the_full_blocks(self, monkeypatch):
        # no pass reads past row ~30 here, so half and full blocks count alike
        calls = _record_kernel_calls(monkeypatch)
        grid = np.linspace(0.0, 3.0, 61)
        compare_columns(ModelParams(), grid, n_max=300)
        assert [columns for columns, _ in calls] == [122]
        assert calls[0][1] <= 151
        assert all(ground_energy(ModelParams(g=g), 300)[3] == 0.0 for g in grid)

    @pytest.mark.parametrize("g,n_max", [(1e4, 50), (1e3, 300)])
    def test_gap_at_strong_coupling(self, monkeypatch, g, n_max):
        # the blocks are not dominant past half + 1; rabi-compare solves n_max alone
        calls = _record_kernel_calls(monkeypatch)
        compare_columns(ModelParams(), [g], n_max=n_max)
        assert [columns for columns, _ in calls] == [2]
        calls.clear()
        gap = ground_energy(ModelParams(g=g), n_max)[3]
        ref = abs(oracles.rabi_dense_ground(1.0, 1.0, g, n_max)
                  - oracles.rabi_dense_ground(1.0, 1.0, g, n_max // 2))
        assert [columns for columns, _ in calls] == [2, 2]
        assert gap == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("g,n_max", [(0.5, 4), (1.5, 20), (3.0, 40)])
    def test_gap_from_second_call(self, monkeypatch, g, n_max):
        # dominant from half + 1 on, but a pass still reads past it
        calls = _record_kernel_calls(monkeypatch)
        gap = ground_energy(ModelParams(g=g), n_max)[3]
        ref = abs(oracles.rabi_dense_ground(1.0, 1.0, g, n_max)
                  - oracles.rabi_dense_ground(1.0, 1.0, g, n_max // 2))
        assert [columns for columns, _ in calls] == [2, 2]
        assert calls[0][1] > max(2, n_max // 2) + 1
        assert gap == pytest.approx(ref, abs=1e-11)

    def test_zero_gap_means_same_brackets(self):
        # where the gap is reported 0 the dense gap is below the bisection stop
        for g in (0.0, 0.5, 1.0, 2.0, 3.0):
            gap = ground_energy(ModelParams(g=g), 60)[3]
            assert gap == 0.0
            ref = abs(oracles.rabi_dense_ground(1.0, 1.0, g, 60)
                      - oracles.rabi_dense_ground(1.0, 1.0, g, 30))
            assert ref <= 1e-11


class TestResidualCut:
    def _block(self, g, n_max):
        diag, off = _block_columns(1.0, np.array([g]), n_max, n_max + 1)
        diag, off = diag[:, :1], off[:, :1]
        exact = np.linalg.eigvalsh(oracles.tridiagonal_dense(diag[:, 0], off[:, 0]))[:1]
        return diag, off, exact

    def test_small_reach_grows_the_rows(self, monkeypatch):
        diag, off, exact = self._block(2.0, 300)
        rows = []
        inverse = rabi._inverse_iteration
        monkeypatch.setattr(rabi, "_inverse_iteration",
                            lambda d, *args: rows.append(len(d)) or inverse(d, *args))
        scale = _scale(diag, off)
        residual = _eigenpair_residual(_whole(diag, off), exact, 1, [], scale)
        assert rows[0] == 2 and rows == sorted(rows) and len(rows) >= 3
        assert rows[-1] < 301
        assert residual[0] <= 1e-10 * scale[0]

    def test_eigenvalue_of_the_leading_rows_only_is_rejected(self):
        # the leading 8 x 8 block's eigenpair leaves no residual inside those
        # rows, but as a vector of the whole space it leaks t_7 v_7 into row 8
        diag, off, exact = self._block(2.0, 300)
        lead = np.linalg.eigvalsh(oracles.tridiagonal_dense(diag[:8, 0], off[:7, 0]))[:1]
        assert lead[0] - exact[0] > 1e-5
        assert rabi._inverse_iteration(diag[:8], off[:7], 0.0, lead, np.ones(1))[0] <= 1e-10
        with pytest.raises(ConvergenceFailure):
            _eigenpair_residual(_whole(diag, off), lead, 4, [], _scale(diag, off))

    def test_cut_meets_the_target_of_the_whole_block(self):
        diag, off, exact = self._block(2.0, 300)
        scale = _scale(diag, off)
        assert _eigenpair_residual(_whole(diag, off), exact, 20, [], scale)[0] <= 1e-10
        assert _eigenpair_residual(_whole(diag, off), exact, len(diag), [], scale)[0] <= 1e-10

    @pytest.mark.parametrize("error", [1e-6, -1e-6])
    def test_wrong_eigenvalue_fails_at_every_reach(self, error):
        diag, off, exact = self._block(2.0, 60)
        with pytest.raises(ConvergenceFailure):
            _eigenpair_residual(_whole(diag, off), exact + error, 3, [], _scale(diag, off))


def _start_vector(m):
    """The start of _inverse_steps on m rows, unnormalised: entries +-1, norm sqrt(m).

    One solve with the identity (unit pivots, zero multipliers) returns the
    start divided by its norm.
    """
    v = next(rabi._inverse_steps(np.ones((m, 1)), np.zeros((m - 1, 1)), 1))[:, 0]
    return v * math.sqrt(m)


def _ground_projection(diag, off, start):
    """Norm of the projection of start onto the lowest eigenspace, from dense eigh."""
    w, u = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    lowest = u[:, w <= w[0] + 1e-9 * max(1.0, np.abs(w).max())]
    return np.linalg.norm(lowest.T @ start)


class TestStartVector:
    """Inverse iteration starts from (-1)^n, which overlaps every block's ground state.

    With S = diag((-1)^n), S T S has offdiagonals -t_n <= 0, so by
    Perron-Frobenius the lowest eigenspace holds a vector u that alternates
    in sign, and the start overlaps it by sum |u_n| >= ||u|| = 1.
    """

    def test_start_alternates(self):
        assert _start_vector(5) == pytest.approx([1.0, -1.0, 1.0, -1.0, 1.0], rel=1e-15)

    @pytest.mark.parametrize("n_max,m", [(50, 8), (50, 30), (50, 51), (300, 151), (300, 301)])
    def test_overlaps_the_lowest_eigenspace(self, n_max, m):
        # both parities; the leading m x m blocks that a guess or a cut reads
        # (the same at either n_max), and the whole blocks at n_max and at half
        g = np.array([0.0, 1e-3, 0.5, 1.0, 2.0, 3.0, 1e4])
        start = _start_vector(m)
        for omega in (0.8, 1.0, 1.2):
            diag, off = _block_columns(omega, g, n_max, n_max + 1)
            projections = [_ground_projection(diag[:m, j], off[:m - 1, j], start)
                           for j in range(diag.shape[1])]
            assert min(projections) >= 1.0 - 1e-9, omega

    def test_degenerate_block_at_zero_coupling(self):
        # g = 0, omega = omega_a: the +1 block's d_0 = d_1 = 1/2, a 2-dimensional
        # lowest eigenspace, which the start meets in e_0 - e_1
        diag, off = _block_columns(1.0, np.array([0.0]), 50, 51)
        assert diag[0, 0] == diag[1, 0] == 0.5
        projection = _ground_projection(diag[:, 0], off[:, 0], _start_vector(51))
        assert projection == pytest.approx(math.sqrt(2.0), rel=1e-12)
