"""Root finding, fold detection, closure coupling, ground-state selection."""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from optodicke.model import ModelParams, PhaseLabel, SpinBranch, Stability, extremum_polynomial
from optodicke.solver import (
    ABSENT,
    STABILITIES,
    NotFound,
    branch_points,
    closure_estimate,
    critical_coupling,
    find_roots,
    ground_state,
    solve_ground,
    sp_closure,
    turning_point,
)

import oracles

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


def members(column):
    """The Stability members of a column of indices into STABILITIES, None where absent."""
    return [STABILITIES[k] for k in column]


def no_roots(pts):
    """Whether a one-row find_roots result has no positive root (only its zero point)."""
    return bool(np.isnan(pts.x[0, 1:]).all())


class TestZeroPhotonPoint:
    # column 0 of find_roots is the zero point gamma_bar = 0
    def test_normal_below_critical(self):
        pts = find_roots(ModelParams(g=0.8, zeta=1.0))[0]
        assert STABILITIES[pts.stability[0, 0]] is Stability.STABLE
        assert pts.energy[0, 0] == -0.5
        assert math.sqrt(pts.x[0, 0]) == 0.0

    def test_normal_above_critical(self):
        pts = find_roots(ModelParams(g=1.5, zeta=1.0))[0]
        assert STABILITIES[pts.stability[0, 0]] is Stability.UNSTABLE
        assert pts.curvature[0, 0] == pytest.approx(2 * (1 - 2.25), rel=1e-15)

    def test_inverted_always_stable(self):
        for g in (0.0, 1.0, 3.0, 10.0):
            pts = find_roots(ModelParams(g=g, zeta=2.0))[1]
            assert STABILITIES[pts.stability[0, 0]] is Stability.STABLE
            assert pts.energy[0, 0] == +0.5

    def test_marginal_exactly_at_critical(self):
        pts = find_roots(ModelParams(g=1.0, zeta=1.0))[0]
        assert STABILITIES[pts.stability[0, 0]] is Stability.MARGINAL

    def test_bitwise_the_kernel_zero_point(self):
        # scalar and array powers differ in the last bit for some omega_a, so
        # the one-point call must be the array kernel's own column 0, bit for
        # bit, for it to classify alike at the marginal band's edge
        rng = np.random.default_rng(8)
        gs = np.array([0.3, 0.7, 1.9])
        for omega_a in rng.uniform(0.3, 3.0, 400):
            params = ModelParams(omega_a=float(omega_a), g=0.7, zeta=0.5)
            for pts, one in zip(branch_points(params, gs), find_roots(params)):
                assert (one.energy[0, 0], one.curvature[0, 0], one.stability[0, 0]) == (
                    pts.energy[1, 0], pts.curvature[1, 0], pts.stability[1, 0])


class TestFindRoots:
    # columns 1 on are the positive roots, ascending; x NaN and stability None where absent
    def test_dicke_limit_closed_form(self):
        pts = find_roots(ModelParams(g=1.5, zeta=0.0))[0]
        assert members(pts.stability[0, 1:]) == [Stability.STABLE, None]
        assert pts.x[0, 1] == pytest.approx(0.45139, abs=1e-5)
        assert no_roots(find_roots(ModelParams(g=0.9, zeta=0.0))[0])
        assert no_roots(find_roots(ModelParams(g=1.5, zeta=0.0))[1])
        assert no_roots(find_roots(ModelParams(g=1.0, zeta=0.0))[0])

    def test_two_roots_reference_point(self):
        pts = find_roots(REF)[0]
        assert members(pts.stability[0, 1:]) == [Stability.STABLE, Stability.UNSTABLE]
        assert pts.x[0, 1] == pytest.approx(0.622866850294, abs=1e-8)
        assert pts.x[0, 2] == pytest.approx(2.803420852626, abs=1e-8)
        assert pts.energy[0, 1] == pytest.approx(-0.701017167434, abs=1e-9)
        assert pts.energy[0, 2] == pytest.approx(-0.543296049428, abs=1e-9)

    def test_single_unstable_root_below_critical(self):
        pts = find_roots(ModelParams(g=0.8, zeta=1.0))[0]
        assert members(pts.stability[0, 1:]) == [Stability.UNSTABLE, None]
        assert pts.x[0, 1] == pytest.approx(4.051017519835, abs=1e-8)

    def test_inverted_root_beyond_normal_scan_bound(self):
        # the inverted-branch root lies past omega*omega_b/(2 zeta^2)
        pts = find_roots(REF)[1]
        assert members(pts.stability[0, 1:]) == [Stability.UNSTABLE]
        assert pts.x[0, 1] == pytest.approx(6.462601185968, abs=1e-8)
        assert pts.x[0, 1] > REF.omega * REF.omega_b / (2 * REF.zeta**2)

    def test_no_normal_roots_beyond_fold(self):
        assert no_roots(find_roots(ModelParams(g=2.0, zeta=1.0))[0])
        pts = find_roots(ModelParams(g=2.0, zeta=1.0))[1]
        assert members(pts.stability[0, 1:]) == [Stability.UNSTABLE]
        assert pts.x[0, 1] == pytest.approx(6.895515378286, abs=1e-8)

    def test_both_branches_in_order(self):
        # one call gives (normal, inverted); the inverted branch has one root column
        normal, inverted = find_roots(REF)
        assert (normal.branch, inverted.branch) == tuple(SpinBranch)
        assert normal.x.shape == (1, 3) and inverted.x.shape == (1, 2)

    def test_zero_point_always_reported(self):
        pts = find_roots(REF)[0]
        assert pts.x[0, 0] == 0.0
        assert STABILITIES[pts.stability[0, 0]] is Stability.UNSTABLE

    def test_residual_bound(self):
        # |p(root)| <= 10 * 1e-10 * |dp/dgamma| at every refined root
        for params in (REF, ModelParams(g=0.8, zeta=1.0), ModelParams(g=1.2, zeta=2.0)):
            for pts in find_roots(params):
                branch, x = pts.branch, pts.x[0, 1:]
                for gb in np.sqrt(x[~np.isnan(x)]).tolist():
                    h = 1e-7
                    slope = (float(extremum_polynomial(params, branch, gb + h))
                             - float(extremum_polynomial(params, branch, gb - h))) / (2 * h)
                    resid = abs(float(extremum_polynomial(params, branch, gb)))
                    assert resid <= 10.0 * 1e-10 * max(abs(slope), 1.0)

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0, 3.0, 3.1])
    def test_root_count_at_fold_edge(self, zeta):
        # 1e-9 either side of the fold: the stable/unstable pair, then nothing
        g_t = oracles.fold_gt(zeta)
        below = find_roots(ModelParams(g=g_t - 1e-9, zeta=zeta))[0]
        above = find_roots(ModelParams(g=g_t + 1e-9, zeta=zeta))[0]
        assert members(below.stability[0, 1:]) == [Stability.STABLE, Stability.UNSTABLE]
        assert no_roots(above)

    def test_certified_empty_beyond_fold(self):
        assert no_roots(find_roots(ModelParams(g=GT_ORACLE[1.0] + 1e-4, zeta=1.0))[0])


class TestProductStateReferee:
    """find_roots against the stationary points of the unreduced product-state energy."""

    def test_roots_are_stationary_points(self):
        # The reduced energy eliminates beta_bar (a minimum) and theta (a
        # minimum on the normal branch, a maximum on the inverted one), so a
        # root's stability is the sign of the Hessian's lowest eigenvalue on
        # the normal branch, and of its Schur complement onto gamma_bar on the
        # inverted branch.  The fold is where two normal roots meet.
        omega, omega_a, omega_b = 1.0, 1.0, 10.0
        g_t = turning_point(ModelParams(), zeta=1.0)
        cases = [(zeta, g) for zeta in (0.5, 1.0) for g in (1.2, 1.5, 1.7)]
        cases += [(2.0, g) for g in (0.7, 1.05, 1.5)]
        cases += [(1.0, g_t - 1e-4), (1.0, g_t + 1e-4), (1.0, 1.0)]
        checked = []
        with mp.workdps(30):
            for zeta, g in cases:
                for pts in find_roots(ModelParams(g=g, zeta=zeta)):
                    for j in np.flatnonzero(pts.stability[0] != ABSENT).tolist():
                        x, energy = float(pts.x[0, j]), float(pts.energy[0, j])
                        gamma_bar = math.sqrt(x)
                        theta = math.atan(2.0 * g * gamma_bar / omega_a)
                        if pts.branch is SpinBranch.INVERTED:
                            theta += math.pi
                        (found, _, _), e, hess = oracles.product_stationary_point(
                            (gamma_bar, -zeta * x / omega_b, theta), g, zeta, omega, omega_a,
                            omega_b)
                        where = (zeta, g, pts.branch, j)
                        assert float(found**2) == pytest.approx(x, rel=1e-12, abs=1e-30), where
                        assert float(e) == pytest.approx(energy, rel=1e-12, abs=1e-12), where
                        assert (hess[2, 2] > 0) == (pts.branch is SpinBranch.NORMAL), where
                        if pts.branch is SpinBranch.NORMAL:
                            mode = min(mp.eigsy(hess)[0])
                        else:
                            rest = mp.matrix([[hess[1, 1], hess[1, 2]], [hess[2, 1], hess[2, 2]]])
                            couple = mp.matrix([hess[0, 1], hess[0, 2]])
                            mode = hess[0, 0] - (couple.T * mp.lu_solve(rest, couple))[0]
                        stability = STABILITIES[pts.stability[0, j]]
                        if stability is Stability.MARGINAL:
                            assert abs(mode) < 1e-12, where
                        else:
                            assert (mode > 0) == (stability is Stability.STABLE), (where, mode)
                        checked.append(where[:3])
        # the fold: the stable and unstable normal roots 1e-4 below g_t, none above
        assert checked.count((1.0, g_t - 1e-4, SpinBranch.NORMAL)) == 3
        assert checked.count((1.0, g_t + 1e-4, SpinBranch.NORMAL)) == 1
        assert len(checked) == 54


def test_triple_root_at_critical_coupling_and_closure():
    # g = g_c and zeta = closure_estimate: the normal-branch cubic has the
    # triple root A = omega_a, so two of its excesses are 0 at once
    # (p < 0 for every x > 0 there; the sign scan would report the rounding
    # of p(0) as a root)
    base = ModelParams(omega=1.2)
    params = replace(base, g=critical_coupling(base), zeta=closure_estimate(base))
    assert no_roots(find_roots(params)[0])
    x_inv = find_roots(params)[1].x[0, 1:]
    assert x_inv[~np.isnan(x_inv)].tolist() == pytest.approx(
        oracles.scan_roots(+1, params.g, params.zeta, 1.2, 1.0, 10.0), rel=1e-9)
    assert ground_state(params)[0] is PhaseLabel.NP_NMINUS


def test_brute_force_equivalence_grid():
    # root count and location match an independent 1e5-point sign-scan oracle
    gs = np.linspace(0.07, 2.93, 50)
    zs = np.linspace(0.06, 2.94, 50)
    checked = 0
    for g in gs:
        for z in zs:
            params = ModelParams(g=float(g), zeta=float(z))
            for pts, sign in zip(find_roots(params), (-1, +1)):
                expected = oracles.scan_roots(sign, float(g), float(z), 1.0, 1.0, 10.0)
                x = pts.x[0, 1:]
                got = np.sqrt(x[~np.isnan(x)]).tolist()
                assert len(got) == len(expected), (g, z, pts.branch)
                for amplitude, x_ref in zip(got, expected):
                    assert amplitude == pytest.approx(math.sqrt(x_ref), abs=1e-6)
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
        g_t = turning_point(ModelParams(), zeta=1.0)
        below = find_roots(ModelParams(g=g_t - 2e-6, zeta=1.0))[0]
        above = find_roots(ModelParams(g=g_t + 2e-6, zeta=1.0))[0]
        assert members(below.stability[0, 1:]).count(Stability.STABLE) == 1
        assert members(above.stability[0, 1:]).count(Stability.STABLE) == 0

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
    # ground_state is (phase, n_p, delta_n_a, n_b, energy)
    def test_normal_phase(self):
        params = ModelParams(g=0.8, zeta=1.0)
        phase, *_, energy = ground_state(params)
        assert phase is PhaseLabel.NP_NMINUS
        assert energy == -0.5
        # the ground point is N-'s zero point, column 0 of solve_ground
        column, normal, _ = solve_ground(params, [params.g])
        assert column[0] == 0 and STABILITIES[normal.stability[0, 0]] is Stability.STABLE

    def test_superradiant_phase(self):
        phase, n_p, _, _, energy = ground_state(REF)
        assert phase is PhaseLabel.SP
        assert energy == pytest.approx(-0.701017167434, abs=1e-9)
        assert n_p == pytest.approx(0.622866850294, abs=1e-8)

    def test_inverted_phase_beyond_fold(self):
        phase, _, delta_n_a, _, energy = ground_state(ModelParams(g=2.0, zeta=1.0))
        assert phase is PhaseLabel.NP_NPLUS
        assert energy == +0.5
        assert delta_n_a == +0.5

    def test_energy_ordering_inside_window(self):
        for g in (1.1, 1.3, 1.5, 1.7):
            phase, *_, energy = ground_state(ModelParams(g=g, zeta=1.0))
            assert phase is PhaseLabel.SP
            assert energy < 0.5

    def test_boundary_emergence(self):
        # stable amplitude -> 0 continuously as g -> g_c from above
        xs = []
        for delta in (1e-2, 1e-3, 1e-4):
            phase, n_p, *_ = ground_state(ModelParams(g=1.0 + delta, zeta=1.0))
            assert phase is PhaseLabel.SP
            xs.append(n_p)
        assert xs[0] > xs[1] > xs[2] > 0.0
        assert xs[2] < 3e-4

    def test_marginal_zero_point_at_exact_critical(self):
        # grids landing exactly on g_c must keep the energy curve continuous
        params = ModelParams(g=1.0, zeta=1.0)
        phase, *_, energy = ground_state(params)
        assert phase is PhaseLabel.NP_NMINUS
        assert energy == -0.5
        column, normal, _ = solve_ground(params, [params.g])
        assert column[0] == 0 and STABILITIES[normal.stability[0, 0]] is Stability.MARGINAL

    def test_dicke_reduction(self):
        # zeta = 0: single transition at g_c, superradiant forever after
        for g, phase in ((0.5, PhaseLabel.NP_NMINUS), (1.2, PhaseLabel.SP),
                         (5.0, PhaseLabel.SP), (50.0, PhaseLabel.SP)):
            assert ground_state(ModelParams(g=g, zeta=0.0))[0] is phase


def test_critical_points_summary():
    # g_c, g_t and zeta_star of one frequency triple, from the three public calls
    assert critical_coupling(REF) == 1.0
    assert turning_point(REF) == pytest.approx(GT_ORACLE[1.0], abs=5e-6)
    assert sp_closure(REF) == pytest.approx(2.995724246, abs=2e-4)
    with pytest.raises(NotFound):  # no fold at zeta = 0
        turning_point(ModelParams(g=1.5, zeta=0.0))


@pytest.mark.parametrize("omega, g, curv, beyond, far_g", [
    (5e-10, 0.0, 1e-9, Stability.STABLE, 0.0),
    (2.0**-30 - 5e-10, 2.0**-15, -1e-9, Stability.UNSTABLE, 2.0),
], ids=["stable-side", "unstable-side"])
def test_stability_band_edges(omega, g, curv, beyond, far_g):
    # the one stability rule, on branch_points' column: the N- zero point has
    # curvature 2(omega - g^2/omega_a), exactly +-1e-9 here, and is marginal
    # while |curvature| <= 1e-9, stable or unstable by its sign beyond
    def stability(omega, g):
        pts = branch_points(ModelParams(omega=omega), [g])[0]
        return pts.curvature[0, 0], STABILITIES[pts.stability[0, 0]]

    assert stability(omega, g) == (curv, Stability.MARGINAL)
    assert stability(float(np.nextafter(omega, math.copysign(math.inf, curv))), g)[1] is beyond
    # far outside the band, and a curvature well inside it
    assert stability(1.0, far_g)[1] is beyond
    assert stability(omega - curv / 4.0, g)[1] is Stability.MARGINAL
