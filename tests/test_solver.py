"""Root finding, fold detection, closure coupling, ground-state selection."""

import math
from dataclasses import replace

import numpy as np
import pytest

from optodicke.model import ModelParams, PhaseLabel, SpinBranch, Stability, extremum_polynomial
from optodicke.solver import (
    NotFound,
    SolverConfig,
    closure_estimate,
    critical_coupling,
    critical_points,
    find_roots,
    ground_state,
    sp_closure,
    turning_point,
    zero_photon_point,
)

import oracles

NORMAL, INVERTED = SpinBranch.NORMAL, SpinBranch.INVERTED
REF = ModelParams(omega=1.0, omega_a=1.0, omega_b=10.0, g=1.5, zeta=1.0)

# Frozen from the closed-form fold condition (oracles.fold_gt, bisected to
# 1e-13); omega = omega_a = 1, omega_b = 10 throughout.
GT_ORACLE = {
    0.5: 3.448082531,
    1.0: 1.763026785,
    1.203: 1.500400854,
    1.5: 1.269735050,
    2.0: 1.087827300,
    2.5: 1.020584271,
    3.0: 1.000947353,
}


class TestCriticalCoupling:
    def test_resonant(self):
        assert critical_coupling(ModelParams()) == 1.0

    def test_closed_form(self):
        assert critical_coupling(ModelParams(omega=4.0)) == 2.0
        assert critical_coupling(ModelParams(omega=0.8, omega_a=1.2)) == pytest.approx(
            math.sqrt(0.96), rel=1e-15)

    def test_independent_of_oscillator(self):
        for wb, z in ((1.0, 0.0), (10.0, 1.0), (40.0, 2.5)):
            p = ModelParams(omega=1.3, omega_b=wb, zeta=z, n_atoms=5)
            assert critical_coupling(p) == critical_coupling(ModelParams(omega=1.3))


class TestZeroPhotonPoint:
    def test_normal_below_critical(self):
        pt = zero_photon_point(ModelParams(g=0.8, zeta=1.0), NORMAL)
        assert pt.stability is Stability.STABLE
        assert pt.energy == -0.5
        assert pt.amplitude == 0.0

    def test_normal_above_critical(self):
        pt = zero_photon_point(ModelParams(g=1.5, zeta=1.0), NORMAL)
        assert pt.stability is Stability.UNSTABLE
        assert pt.curvature == pytest.approx(2 * (1 - 2.25), rel=1e-15)

    def test_inverted_always_stable(self):
        for g in (0.0, 1.0, 3.0, 10.0):
            pt = zero_photon_point(ModelParams(g=g, zeta=2.0), INVERTED)
            assert pt.stability is Stability.STABLE
            assert pt.energy == +0.5

    def test_marginal_exactly_at_critical(self):
        pt = zero_photon_point(ModelParams(g=1.0, zeta=1.0), NORMAL)
        assert pt.stability is Stability.MARGINAL

    def test_bitwise_the_kernel_zero_point(self):
        # scalar and array powers differ in the last bit for some omega_a, so
        # only the kernel's own column 0 classifies alike at |curvature| = tol_curv
        rng = np.random.default_rng(8)
        for omega_a in rng.uniform(0.3, 3.0, 400):
            params = ModelParams(omega_a=float(omega_a), g=0.7, zeta=0.5)
            for branch in (NORMAL, INVERTED):
                assert zero_photon_point(params, branch) == find_roots(params, branch).zero_point


class TestFindRoots:
    def test_dicke_limit_closed_form(self):
        rs = find_roots(ModelParams(g=1.5, zeta=0.0), NORMAL)
        assert len(rs.roots) == 1
        root = rs.roots[0]
        assert root.amplitude**2 == pytest.approx(0.45139, abs=1e-5)
        assert root.stability is Stability.STABLE
        assert not find_roots(ModelParams(g=0.9, zeta=0.0), NORMAL).roots
        assert not find_roots(ModelParams(g=1.5, zeta=0.0), INVERTED).roots
        assert not find_roots(ModelParams(g=1.0, zeta=0.0), NORMAL).roots

    def test_two_roots_reference_point(self):
        rs = find_roots(REF, NORMAL)
        assert [r.stability for r in rs.roots] == [Stability.STABLE, Stability.UNSTABLE]
        assert rs.roots[0].amplitude**2 == pytest.approx(0.622866850294, abs=1e-8)
        assert rs.roots[1].amplitude**2 == pytest.approx(2.803420852626, abs=1e-8)
        assert rs.roots[0].energy == pytest.approx(-0.701017167434, abs=1e-9)
        assert rs.roots[1].energy == pytest.approx(-0.543296049428, abs=1e-9)

    def test_single_unstable_root_below_critical(self):
        rs = find_roots(ModelParams(g=0.8, zeta=1.0), NORMAL)
        assert len(rs.roots) == 1
        assert rs.roots[0].stability is Stability.UNSTABLE
        assert rs.roots[0].amplitude**2 == pytest.approx(4.051017519835, abs=1e-8)

    def test_inverted_root_beyond_normal_scan_bound(self):
        # the inverted-branch root lies past omega*omega_b/(2 zeta^2)
        rs = find_roots(REF, INVERTED)
        assert len(rs.roots) == 1
        assert rs.roots[0].stability is Stability.UNSTABLE
        assert rs.roots[0].amplitude**2 == pytest.approx(6.462601185968, abs=1e-8)
        assert rs.roots[0].amplitude**2 > REF.omega * REF.omega_b / (2 * REF.zeta**2)

    def test_no_normal_roots_beyond_fold(self):
        rs = find_roots(ModelParams(g=2.0, zeta=1.0), NORMAL)
        assert rs.roots == ()
        ri = find_roots(ModelParams(g=2.0, zeta=1.0), INVERTED)
        assert len(ri.roots) == 1
        assert ri.roots[0].amplitude**2 == pytest.approx(6.895515378286, abs=1e-8)

    def test_zero_point_always_reported(self):
        rs = find_roots(REF, NORMAL)
        assert rs.zero_point.amplitude == 0.0
        assert rs.zero_point.stability is Stability.UNSTABLE

    def test_residual_bound(self):
        # |p(root)| <= 10 * tol_root * |dp/dgamma| at every refined root
        cfg = SolverConfig()
        for params in (REF, ModelParams(g=0.8, zeta=1.0), ModelParams(g=1.2, zeta=2.0)):
            for branch in SpinBranch:
                for root in find_roots(params, branch, cfg).roots:
                    gb = root.amplitude
                    h = 1e-7
                    slope = (float(extremum_polynomial(params, branch, gb + h))
                             - float(extremum_polynomial(params, branch, gb - h))) / (2 * h)
                    resid = abs(float(extremum_polynomial(params, branch, gb)))
                    assert resid <= 10.0 * cfg.tol_root * max(abs(slope), 1.0)

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0, 3.0, 3.1])
    def test_root_count_at_fold_edge(self, zeta):
        # 1e-9 either side of the fold: the stable/unstable pair, then nothing
        g_t = oracles.fold_gt(zeta)
        below = find_roots(ModelParams(g=g_t - 1e-9, zeta=zeta), NORMAL)
        above = find_roots(ModelParams(g=g_t + 1e-9, zeta=zeta), NORMAL)
        assert [r.stability for r in below.roots] == [Stability.STABLE, Stability.UNSTABLE]
        assert above.roots == ()

    def test_certified_empty_beyond_fold(self):
        for sp in (100, 2000):
            rs = find_roots(ModelParams(g=GT_ORACLE[1.0] + 1e-4, zeta=1.0), NORMAL,
                            SolverConfig(scan_points=sp))
            assert rs.roots == ()


def test_triple_root_at_critical_coupling_and_closure():
    # g = g_c and zeta = closure_estimate: the normal-branch cubic has the
    # triple root A = omega_a, so two of its excesses are 0 at once
    # (p < 0 for every x > 0 there; the sign scan would report the rounding
    # of p(0) as a root)
    base = ModelParams(omega=1.2)
    params = replace(base, g=critical_coupling(base), zeta=closure_estimate(base))
    assert find_roots(params, NORMAL).roots == ()
    x_inv = [r.amplitude**2 for r in find_roots(params, INVERTED).roots]
    assert x_inv == pytest.approx(
        oracles.scan_roots(+1, params.g, params.zeta, 1.2, 1.0, 10.0), rel=1e-9)
    assert ground_state(params).phase is PhaseLabel.NP_NMINUS


def test_brute_force_equivalence_grid():
    # root count and location match an independent 1e5-point sign-scan oracle
    cfg = SolverConfig()
    gs = np.linspace(0.07, 2.93, 50)
    zs = np.linspace(0.06, 2.94, 50)
    checked = 0
    for g in gs:
        for z in zs:
            params = ModelParams(g=float(g), zeta=float(z))
            for branch, sign in ((NORMAL, -1), (INVERTED, +1)):
                expected = oracles.scan_roots(sign, float(g), float(z), 1.0, 1.0, 10.0)
                got = find_roots(params, branch, cfg).roots
                assert len(got) == len(expected), (g, z, branch)
                for root, x_ref in zip(got, expected):
                    assert root.amplitude == pytest.approx(math.sqrt(x_ref), abs=1e-6)
                checked += 1
    assert checked == 5000


class TestTurningPoint:
    def test_reference_values(self):
        base = ModelParams()
        assert turning_point(base, zeta=1.0) == pytest.approx(1.763, abs=0.005)
        for zeta, gt in GT_ORACLE.items():
            assert turning_point(base, zeta=zeta) == pytest.approx(gt, abs=5e-6)

    def test_matches_fold_oracle_off_reference(self):
        got = turning_point(ModelParams(omega=1.4, omega_a=0.9, omega_b=6.0), zeta=1.1)
        assert got == pytest.approx(oracles.fold_gt(1.1, 1.4, 0.9, 6.0), abs=5e-6)

    def test_merged_root_residuals(self):
        # at g_t the interior maximum of p sits on zero: both p and its slope vanish
        g_t = turning_point(ModelParams(), zeta=1.0)
        a_star = (10.0 * g_t**4) ** (1.0 / 3.0)
        x_star = (a_star**2 - 1.0) / (4.0 * g_t**2)
        p_at_max = oracles.p_of_x(x_star, -1, g_t, 1.0, 1.0, 1.0, 10.0)
        assert abs(p_at_max) < 1e-5

    def test_strictly_decreasing_in_zeta(self):
        base = ModelParams()
        values = [turning_point(base, zeta=z) for z in (0.5, 1.0, 1.5, 2.0, 2.5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_stable_count_flips_across_fold(self):
        cfg = SolverConfig()
        g_t = turning_point(ModelParams(), zeta=1.0, config=cfg)
        below = find_roots(ModelParams(g=g_t - 2 * cfg.tol_gt, zeta=1.0), NORMAL, cfg)
        above = find_roots(ModelParams(g=g_t + 2 * cfg.tol_gt, zeta=1.0), NORMAL, cfg)
        assert len(below.stable_roots) == 1
        assert len(above.stable_roots) == 0

    @pytest.mark.parametrize("zeta", [1e-8, 1e-45, 1e-200])
    def test_small_zeta_no_overflow(self, zeta):
        # for zeta -> 0 the fold quartic gives g_t -> sqrt(8 omega^3 omega_b / 27) / zeta
        g_t = turning_point(ModelParams(), zeta=zeta)
        assert g_t == pytest.approx(math.sqrt(8.0 * 10.0 / 27.0) / zeta, rel=1e-12)

    def test_fold_beyond_largest_double_is_inf(self):
        assert turning_point(ModelParams(), zeta=5e-324) == math.inf

    def test_zeta_zero_absent(self):
        with pytest.raises(NotFound):
            turning_point(ModelParams(), zeta=0.0)

    def test_beyond_closure_not_found(self):
        with pytest.raises(NotFound):
            turning_point(ModelParams(), zeta=math.sqrt(10.0) + 0.01)

    def test_uses_params_zeta_by_default(self):
        assert turning_point(REF) == turning_point(ModelParams(), zeta=1.0)


class TestClosure:
    def test_estimate_closed_form(self):
        assert closure_estimate(ModelParams()) == pytest.approx(math.sqrt(10.0), rel=1e-15)
        assert closure_estimate(ModelParams(omega=2.0, omega_a=0.5, omega_b=40.0)) == pytest.approx(
            math.sqrt(40.0 * 4.0 / 0.5), rel=1e-15)

    def test_default_width_matches_reported_closure(self):
        # window narrows to 1e-3 just below zeta = 3, consistent with the
        # reported full collapse at 3.0
        star = sp_closure(ModelParams())
        assert star == pytest.approx(2.995724246, abs=2e-4)
        assert star == pytest.approx(3.0, abs=0.05)

    def test_wider_tolerance_closes_earlier(self):
        star = sp_closure(ModelParams(), width_tol=0.01)
        assert star == pytest.approx(2.676997651, abs=2e-4)

    def test_window_positive_at_three_zero_beyond_estimate(self):
        width = turning_point(ModelParams(), zeta=3.0) - 1.0
        assert 0.0 < width <= 0.01
        assert width == pytest.approx(0.000947353, abs=5e-6)
        with pytest.raises(NotFound):
            turning_point(ModelParams(), zeta=math.sqrt(10.0) + 0.01)

    @pytest.mark.parametrize("omega, omega_a, omega_b",
                             [(1.0, 1.0, 5.0), (1.0, 1.0, 10.0), (1.0, 1.0, 20.0),
                              (0.6, 1.4, 30.0)])
    @pytest.mark.parametrize("width_tol", [1e-6, 1e-3, 0.3])
    def test_window_at_closure_is_width_tol(self, omega, omega_a, omega_b, width_tol):
        # the closed form against the fold oracle: the window at zeta_star is
        # width_tol wide, and it narrows with zeta, so zeta_star is the smallest
        base = ModelParams(omega=omega, omega_a=omega_a, omega_b=omega_b)
        star = sp_closure(base, width_tol=width_tol)
        width = oracles.fold_gt(star, omega, omega_a, omega_b) - critical_coupling(base)
        assert width == pytest.approx(width_tol, rel=1e-8)

    def test_grows_with_oscillator_frequency(self):
        stars = [sp_closure(ModelParams(omega_b=wb), width_tol=0.01) for wb in (10.0, 40.0, 90.0)]
        assert stars[0] < stars[1] < stars[2]
        # sqrt(omega_b) scaling from the small-amplitude expansion
        assert stars[1] / stars[0] == pytest.approx(2.0, abs=0.2)
        assert stars[2] / stars[1] == pytest.approx(1.5, abs=0.15)


class TestGroundState:
    def test_normal_phase(self):
        gs = ground_state(ModelParams(g=0.8, zeta=1.0))
        assert gs.phase is PhaseLabel.NP_NMINUS
        assert gs.observables.energy == -0.5
        assert gs.point.stability is Stability.STABLE

    def test_superradiant_phase(self):
        gs = ground_state(REF)
        assert gs.phase is PhaseLabel.SP
        assert gs.observables.energy == pytest.approx(-0.701017167434, abs=1e-9)
        assert gs.observables.n_p == pytest.approx(0.622866850294, abs=1e-8)

    def test_inverted_phase_beyond_fold(self):
        gs = ground_state(ModelParams(g=2.0, zeta=1.0))
        assert gs.phase is PhaseLabel.NP_NPLUS
        assert gs.observables.energy == +0.5
        assert gs.observables.delta_n_a == +0.5

    def test_energy_ordering_inside_window(self):
        for g in (1.1, 1.3, 1.5, 1.7):
            gs = ground_state(ModelParams(g=g, zeta=1.0))
            assert gs.phase is PhaseLabel.SP
            assert gs.observables.energy < 0.5

    def test_boundary_emergence(self):
        # stable amplitude -> 0 continuously as g -> g_c from above
        xs = []
        for delta in (1e-2, 1e-3, 1e-4):
            gs = ground_state(ModelParams(g=1.0 + delta, zeta=1.0))
            assert gs.phase is PhaseLabel.SP
            xs.append(gs.observables.n_p)
        assert xs[0] > xs[1] > xs[2] > 0.0
        assert xs[2] < 3e-4

    def test_marginal_zero_point_at_exact_critical(self):
        # grids landing exactly on g_c must keep the energy curve continuous
        gs = ground_state(ModelParams(g=1.0, zeta=1.0))
        assert gs.phase is PhaseLabel.NP_NMINUS
        assert gs.observables.energy == -0.5
        assert gs.point.stability is Stability.MARGINAL

    def test_dicke_reduction(self):
        # zeta = 0: single transition at g_c, superradiant forever after
        for g, phase in ((0.5, PhaseLabel.NP_NMINUS), (1.2, PhaseLabel.SP),
                         (5.0, PhaseLabel.SP), (50.0, PhaseLabel.SP)):
            assert ground_state(ModelParams(g=g, zeta=0.0)).phase is phase


def test_critical_points_summary():
    cp = critical_points(REF)
    assert cp.g_c == 1.0
    assert cp.g_t == pytest.approx(GT_ORACLE[1.0], abs=5e-6)
    assert cp.zeta_star == pytest.approx(2.995724246, abs=2e-4)
    cp0 = critical_points(ModelParams(g=1.5, zeta=0.0))
    assert cp0.g_t is None


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_root=0.0)
    with pytest.raises(ValueError):
        SolverConfig(scan_points=50)
    with pytest.raises(ValueError):
        SolverConfig(tol_gt=math.inf)
    cfg = SolverConfig()
    assert replace(cfg, scan_points=500).scan_points == 500
