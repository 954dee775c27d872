"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
of every criterion.  Expected values are frozen from independent oracles
(dense sign scans, the closed-form fold condition, dense eigvalsh builds,
extended-precision finite differences); tolerances are stated inline.
"""

import functools
import json
import math

import numpy as np
import pytest

from optodicke.cli import run
from optodicke.diagram import phase_grid, sweep_g
from optodicke.model import (
    ModelParams,
    PhaseLabel,
    SpinBranch,
    curvature,
    extremum_polynomial,
)
from optodicke.rabi import _block_columns, compare_columns, ground_energy
from optodicke.solver import PHASES, NotFound, critical_coupling, ground_state, turning_point

import oracles


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {num:02d} FAIL  {title}")
                raise
            print(f"[acceptance] {num:02d} PASS  {title}")
        return inner
    return wrap


@criterion(1, "critical coupling sqrt(omega*omega_a), boundary flat in zeta and omega_b")
def test_critical_coupling():
    assert critical_coupling(ModelParams()) == 1.0
    rng = np.random.default_rng(5)
    for _ in range(50):
        w, wa = rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)
        p = ModelParams(omega=w, omega_a=wa, omega_b=rng.uniform(1, 50), zeta=rng.uniform(0, 3))
        assert critical_coupling(p) == pytest.approx(math.sqrt(w * wa), rel=1e-12)

    # the refined boundary of the NP(N-) region must not move with zeta or
    # omega_b (the state above it may be SP or, past closure, NP(N+))
    for omega_b in (5.0, 10.0, 40.0):
        grid = phase_grid(ModelParams(omega_b=omega_b), np.linspace(0.8, 1.2, 3),
                          np.linspace(0.5, 2.5, 3))
        exits = grid.boundary_g[grid.boundary_below == PHASES.index(PhaseLabel.NP_NMINUS)]
        assert len(exits) == 3
        for g_b in exits.tolist():
            assert g_b == pytest.approx(1.0, abs=2e-4)


@criterion(2, "turning points g_t(1.0) = 1.763 +- 0.005 and g_t(1.203) = 1.500 +- 0.005")
def test_turning_points():
    base = ModelParams()
    assert turning_point(base, zeta=1.0) == pytest.approx(1.763, abs=0.005)
    assert turning_point(base, zeta=1.203) == pytest.approx(1.500, abs=0.005)


@criterion(3, "superradiant window at zeta=3 is <= 0.01 wide, positive, gone past sqrt(10)")
def test_sp_closure():
    base = ModelParams()
    width = turning_point(base, zeta=3.0) - critical_coupling(base)
    assert 0.0 < width <= 0.01
    estimate = math.sqrt(10.0)  # exact-closure coupling from the series expansion
    print(f"[acceptance]    window(zeta=3.0) = {width:.6f}; exact-closure estimate "
          f"sqrt(10) = {estimate:.6f}")
    with pytest.raises(NotFound):
        turning_point(base, zeta=estimate + 0.01)


@criterion(4, "zeta=0 sweep reproduces the closed forms to 1e-10 for N=1 and N=100")
def test_dicke_reduction():
    def np_exact(g):
        return 0.0 if g <= 1.0 else 0.25 * (g * g - 1.0 / (g * g))

    def eps_exact(g):
        return -0.5 if g <= 1.0 else -0.25 * (g * g + 1.0 / (g * g))

    ground_by_n = {}
    for n_atoms in (1, 100):
        sweep = sweep_g(ModelParams(zeta=0.0, n_atoms=n_atoms), np.linspace(0.0, 3.0, 301))
        rows = np.arange(sweep.g.size)
        ground = [c[rows, sweep.ground] for c in (sweep.n_p, sweep.delta_n_a, sweep.n_b,
                                                  sweep.energy)]
        ground_by_n[n_atoms] = ground + [sweep.phase]
        for g, n_p, energy in zip(sweep.g.tolist(), ground[0].tolist(), ground[3].tolist()):
            assert n_p == pytest.approx(np_exact(g), abs=1e-10)
            assert energy == pytest.approx(eps_exact(g), abs=1e-10)
    for a, b in zip(ground_by_n[1], ground_by_n[100]):
        assert np.array_equal(a, b)


@criterion(5, "observable identities over a 1000-point random parameter sample")
def test_observable_identities():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        p = ModelParams(omega=rng.uniform(0.5, 2.0), omega_a=1.0,
                        omega_b=rng.uniform(2.0, 20.0), g=rng.uniform(0.0, 3.0),
                        zeta=rng.uniform(0.0, 3.0), n_atoms=int(rng.integers(1, 100)))
        phase, n_p, delta_n_a, n_b, _ = ground_state(p)
        lhs, rhs = n_b * p.omega_b**2, p.zeta**2 * n_p**2
        if rhs == 0.0:
            assert lhs == 0.0
        else:
            assert lhs == pytest.approx(rhs, rel=1e-12)
        if phase is PhaseLabel.NP_NMINUS:
            assert delta_n_a == -0.5
        elif phase is PhaseLabel.NP_NPLUS:
            assert delta_n_a == +0.5
        else:
            assert -0.5 <= delta_n_a < 0.0


@criterion(6, "multi-transition energy and population curves at zeta=1")
def test_multi_transition_curve():
    g_t = 1.763026785  # fold oracle
    sweep = sweep_g(ModelParams(zeta=1.0), np.linspace(0.0, 3.0, 301))
    rows = np.arange(sweep.g.size)
    energy, dna = sweep.energy[rows, sweep.ground], sweep.delta_n_a[rows, sweep.ground]
    for g, e, d in zip(sweep.g.tolist(), energy.tolist(), dna.tolist()):
        if g < 1.0:
            assert e == -0.5
        elif g > g_t:
            assert e == +0.5
            assert d == +0.5
    # continuous decrease across the superradiant window
    sp = np.flatnonzero(sweep.phase == PHASES.index(PhaseLabel.SP))
    energies = energy[sp].tolist()
    assert energies[0] == pytest.approx(-0.5, abs=5e-3)
    assert all(a > b for a, b in zip(energies, energies[1:]))
    assert energies[-1] == pytest.approx(-0.941436898, abs=5e-3)  # fold-point energy
    # population difference jumps from approx. -0.109 (oracle value at the
    # fold) to +0.5; magnitude >= 0.6
    last_sp = sp[-1]
    assert -0.20 < dna[last_sp] < -0.10
    first_np = np.flatnonzero(sweep.g > sweep.g[last_sp])[0]
    assert dna[first_np] - dna[last_sp] >= 0.6


@criterion(7, "Rabi limit: variational bound over 61 points, derived deviation envelope")
def test_rabi_cross_validation():
    grid = np.linspace(0.0, 3.0, 61)
    deviation = {}
    for omega in (1.0, 0.8, 1.2):
        g, _, _, deviation[omega] = compare_columns(ModelParams(omega=omega), grid, n_max=300)
        assert np.all(deviation[omega] >= -1e-8)

    resonant = deviation[1.0]
    assert abs(resonant[0]) <= 1e-10
    assert resonant[1] <= 5e-4  # g = 0.05: deviation has left zero quadratically
    deep = resonant[g >= 2.0].tolist()
    for a, b in zip(deep, deep[1:]):
        assert b < a
    # Deep-coupling envelope derived from the dense oracle: 0.085446 at g=2
    # shrinking to 0.010123 at g=3.  (A 0.02 cap at g=2 is not attainable by
    # any diagonalization consistent with the dense spectrum.)
    assert deep[0] == pytest.approx(0.085446, abs=1e-4)
    assert all(d <= 0.086 for d in deep)
    assert deep[-1] <= 0.02


@criterion(8, "eigensolver: parity blocks match dense spectra, residuals, truncation")
def test_eigensolver_correctness():
    rng = np.random.default_rng(8)
    for _ in range(6):
        omega, omega_a, g = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), rng.uniform(0.0, 3.0)
        n_max = int(rng.integers(3, 9))
        diag, off = _block_columns(omega, omega_a, np.array([g]), n_max, n_max + 1)
        union = np.sort(np.concatenate([np.linalg.eigvalsh(oracles.tridiagonal_dense(
            diag[:, j], off[:, j])) for j in (0, 1)]))
        dense = np.linalg.eigvalsh(oracles.rabi_dense(omega, omega_a, g, n_max))
        np.testing.assert_allclose(union, dense, atol=1e-12)

    for g in (0.5, 2.0):
        _, _, residual, _ = ground_energy(ModelParams(g=g), 300)
        # the larger norm bound of the two parity blocks (both above 1 here)
        blocks = _block_columns(1.0, 1.0, np.array([g]), 300, 301)
        scale = oracles.gershgorin_bracket(*blocks)[4].max()
        assert residual <= 1e-10 * scale

    energies = [ground_energy(ModelParams(g=3.0), n)[0] for n in (50, 100, 200, 300)]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 5e-12
    assert abs(energies[-1] - energies[-2]) <= 1e-8


@criterion(9, "derivative consistency on 1000 random samples at step 1e-5")
def test_derivative_consistency():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        w, wa, wb = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(1.0, 20.0)
        g, z, gb = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(1e-3, 3.0)
        branch = SpinBranch.NORMAL if rng.random() < 0.5 else SpinBranch.INVERTED
        p = ModelParams(omega=w, omega_a=wa, omega_b=wb, g=g, zeta=z)
        d1 = oracles.fd_first(gb, int(branch), g, z, w, wa, wb)
        d2 = oracles.fd_second(gb, int(branch), g, z, w, wa, wb)
        assert 2.0 * gb * float(extremum_polynomial(p, branch, gb)) == pytest.approx(
            d1, rel=1e-6, abs=1e-8)
        assert float(curvature(p, branch, gb)) == pytest.approx(d2, rel=1e-6, abs=1e-8)


@criterion(10, "byte-identical CLI output across repeated runs and worker counts")
def test_determinism(tmp_path, monkeypatch):
    outputs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        monkeypatch.setenv("OPTODICKE_WORKERS", workers)
        sweep_out = tmp_path / f"sweep_{tag}.csv"
        rabi_out = tmp_path / f"rabi_{tag}.json"
        assert run(["sweep", "--zeta", "1", "--g", "0:3:41", "--output", str(sweep_out)]) == 0
        assert run(["rabi-compare", "--g", "0:3:7", "--n-max", "80", "--format", "json",
                    "--output", str(rabi_out)]) == 0
        outputs.append((sweep_out.read_bytes(), rabi_out.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    json.loads(outputs[0][1].decode("utf-8"))  # JSON output stays well-formed


@criterion(11, "Rabi transition: ED photon number -> variational as omega/omega_a -> 0")
def test_rabi_transition_in_the_classical_limit():
    # A single atom has a true transition only for r = omega/omega_a -> 0, where
    # mean field becomes exact (Hwang, Puebla and Plenio, PRL 115, 180404, 2015):
    # r <a+a> -> max(0, (lambda^2 - lambda^-2)/4) at lambda = g/g_c.  <a+a> = dE/domega
    # (Hellmann-Feynman) from central differences of the ED energies, g held fixed.
    lam = np.array([0.5, 1.0, 1.5, 2.0])
    variational = np.maximum(0.0, (lam**2 - lam**-2) / 4.0)
    at_g_c = []
    for r in (1.0, 0.1, 0.01):
        g, h = lam * math.sqrt(r), 1e-4 * r
        n_max = max(300, round(20.0 / r))
        upper, lower = (compare_columns(ModelParams(omega=r + s), g, n_max=n_max)[1]
                        for s in (h, -h))
        scaled = r * (upper - lower) / (2.0 * h)
        off = lam != 1.0
        assert np.all(np.abs(scaled[off] - variational[off]) <= 0.3 * r), (r, scaled)
        at_g_c.append(scaled[1])
    # at lambda = 1 the scaled photon number falls with r (to 0.0847, 0.0204, 0.0066)
    assert at_g_c[0] > at_g_c[1] > at_g_c[2] > 0.0
