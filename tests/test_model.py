"""Closed-form model functions: examples, identities, derivative consistency."""

import math
import re

import numpy as np
import pytest

from optodicke.model import (
    InvalidInput,
    ModelParams,
    SpinBranch,
    curvature,
    extremum_polynomial,
    extremum_polynomial_slope,
    level_splitting,
    observable_terms,
    raw_amplitude,
    scaled_energy,
    scs_angles,
    tilt_ratio,
)
from optodicke.rabi import _parity_rows, ed_couplings, smallest_eigenvalue
from optodicke.solver import couplings, sp_closure

import oracles

NORMAL, INVERTED = SpinBranch.NORMAL, SpinBranch.INVERTED

# Stable/unstable roots of the reference point omega=omega_a=1, omega_b=10,
# zeta=1, g=1.5, frozen from a 2e5-point sign scan refined by bisection.
X_S = 0.622866850294
X_US = 2.803420852626
EPS_S = -0.701017167434
REF = ModelParams(omega=1.0, omega_a=1.0, omega_b=10.0, g=1.5, zeta=1.0)


class TestParams:
    def test_defaults(self):
        p = ModelParams()
        assert (p.omega, p.omega_a, p.omega_b, p.n_atoms) == (1.0, 1.0, 10.0, 1)

    @pytest.mark.parametrize("kw", [
        dict(omega=0.0), dict(omega_a=-1.0), dict(omega_b=0.0),
        dict(g=-0.1), dict(zeta=-2.0), dict(n_atoms=0), dict(n_atoms=1.5),
        dict(n_atoms=math.inf), dict(n_atoms=-math.inf), dict(n_atoms=math.nan),
        dict(g=math.nan), dict(g=math.inf), dict(zeta=math.nan), dict(zeta=math.inf),
        dict(omega_b=math.inf), dict(omega_a=1.0000000000000002e150), dict(omega_a=1e300),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            ModelParams(**kw)

    def test_raw_amplitude(self):
        p = ModelParams(n_atoms=16)
        assert raw_amplitude(p, 0.5) == 2.0


@pytest.mark.parametrize("check, kwargs, message", [
    (ModelParams, dict(omega=math.nan), "omega must be finite, got nan"),
    (ModelParams, dict(omega=0.0), "omega must be > 0, got 0.0"),
    (ModelParams, dict(omega_a=-1.0), "omega_a must be > 0, got -1.0"),
    (ModelParams, dict(omega_a=1e300),
     "omega_a must be <= 1e+150, where its square fits in a double, got 1e+300"),
    (ModelParams, dict(omega_b=math.inf), "omega_b must be finite, got inf"),
    (ModelParams, dict(g=-0.1), "g must be >= 0, got -0.1"),
    (ModelParams, dict(zeta=-2.0), "zeta must be >= 0, got -2.0"),
    (ModelParams, dict(n_atoms=0), "n_atoms must be a positive integer, got 0"),
    (couplings, dict(params=ModelParams(), g=[0.0, -1.0]), "g must be >= 0, got -1.0"),
    (couplings, dict(params=ModelParams(), g=1.0, zeta=[math.nan]),
     "zeta must be finite, got nan"),
    (ed_couplings, dict(params=ModelParams(zeta=1.0), g=1.0),
     "zeta must be 0 for the Rabi ED, got 1.0"),
    (ed_couplings, dict(params=ModelParams(n_atoms=2), g=1.0),
     "n_atoms must be 1 for the one-atom (Rabi) ED, got 2"),
    (ed_couplings, dict(params=ModelParams(omega=1e-60), g=1.0),
     "omega must be in [1e-50, 1e+50], got 1e-60"),
    (ed_couplings, dict(params=ModelParams(), g=[1e60]), "g must be in [0, 1e+50], got 1e+60"),
    (sp_closure, dict(params=ModelParams(), width_tol=0), "width_tol must be > 0"),
    (_parity_rows, dict(omega=1.0, omega_a=1.0, g=np.array([1.0]), n_max=1),
     "n_max must be >= 2"),
    (smallest_eigenvalue, dict(params=ModelParams(), parity=0), "parity must be +1 or -1"),
    (scs_angles, dict(params=ModelParams(), gamma_bar=-0.5), "gamma_bar must be >= 0"),
])
def test_input_check_raises_invalid_input(check, kwargs, message):
    # InvalidInput is a ValueError, so a caller that catches ValueError still does
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$") as error:
        check(**kwargs)
    assert isinstance(error.value, ValueError)


class TestLevelSplitting:
    def test_zero_amplitude(self):
        assert level_splitting(ModelParams(g=7.0), 0.0) == 1.0

    def test_reference_value(self):
        # sqrt(1 + 9*0.622), quoted to 4 decimals as 2.5687
        assert level_splitting(REF, math.sqrt(0.622)) == pytest.approx(2.5687, abs=1e-4)

    def test_f_equals_one(self):
        assert level_splitting(ModelParams(g=0.5), 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_even_and_monotone(self):
        gb = np.linspace(0.0, 3.0, 50)
        A = level_splitting(REF, gb)
        assert np.all(A >= REF.omega_a)
        assert np.all(np.diff(A) >= 0.0)
        np.testing.assert_allclose(level_splitting(REF, -gb), A, rtol=1e-15)


class TestScaledEnergy:
    def test_zero_amplitude(self):
        assert scaled_energy(REF, NORMAL, 0.0) == -0.5
        assert scaled_energy(REF, INVERTED, 0.0) == +0.5

    def test_at_stable_root(self):
        assert scaled_energy(REF, NORMAL, math.sqrt(X_S)) == pytest.approx(EPS_S, abs=1e-9)

    def test_branch_symmetry(self):
        # eps_plus - eps_minus = A >= omega_a for every amplitude
        gb = np.linspace(0.0, 3.0, 101)
        gap = scaled_energy(REF, INVERTED, gb) - scaled_energy(REF, NORMAL, gb)
        np.testing.assert_allclose(gap, level_splitting(REF, gb), rtol=1e-13)
        assert np.all(gap >= REF.omega_a - 1e-15)

    def test_n_independence(self):
        base = ModelParams(omega=0.9, omega_a=1.1, omega_b=7.0, g=1.3, zeta=0.7, n_atoms=1)
        for n in (2, 17, 100):
            p = ModelParams(omega=0.9, omega_a=1.1, omega_b=7.0, g=1.3, zeta=0.7, n_atoms=n)
            assert scaled_energy(p, NORMAL, 0.8) == scaled_energy(base, NORMAL, 0.8)
            assert extremum_polynomial(p, INVERTED, 0.8) == extremum_polynomial(base, INVERTED, 0.8)
            assert curvature(p, NORMAL, 0.8) == curvature(base, NORMAL, 0.8)


class TestExtremumPolynomial:
    def test_boundary_value(self):
        assert extremum_polynomial(ModelParams(g=1.0), NORMAL, 0.0) == 0.0

    def test_inverted_at_zero(self):
        assert extremum_polynomial(ModelParams(g=1.5), INVERTED, 0.0) == 3.25

    def test_near_zero_at_tabulated_root(self):
        assert abs(extremum_polynomial(REF, NORMAL, math.sqrt(0.622))) < 1e-2
        assert abs(extremum_polynomial(REF, NORMAL, math.sqrt(X_S))) < 1e-9


class TestCurvature:
    def test_marginal_at_critical_coupling(self):
        assert curvature(ModelParams(g=1.0), NORMAL, 0.0) == 0.0

    def test_inverted_zero_amplitude(self):
        assert curvature(ModelParams(g=2.0), INVERTED, 0.0) == 10.0

    def test_positive_at_stable_root(self):
        c = curvature(REF, NORMAL, math.sqrt(X_S))
        fd = oracles.fd_second(math.sqrt(X_S), -1, 1.5, 1.0, 1.0, 1.0, 10.0)
        assert c > 0.0
        assert c == pytest.approx(fd, rel=1e-6)


def test_gradient_consistency_random_grid():
    # analytic 2*gb*p and curvature vs extended-precision central differences
    rng = np.random.default_rng(42)
    for _ in range(300):
        w, wa, wb = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(1.0, 20.0)
        g, z, gb = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(1e-3, 3.0)
        branch = NORMAL if rng.random() < 0.5 else INVERTED
        p = ModelParams(omega=w, omega_a=wa, omega_b=wb, g=g, zeta=z)
        d1 = oracles.fd_first(gb, int(branch), g, z, w, wa, wb)
        d2 = oracles.fd_second(gb, int(branch), g, z, w, wa, wb)
        assert 2.0 * gb * extremum_polynomial(p, branch, gb) == pytest.approx(d1, rel=1e-6, abs=1e-8)
        assert curvature(p, branch, gb) == pytest.approx(d2, rel=1e-6, abs=1e-8)


class TestScsAngles:
    # scs_angles gives (theta, rho_bar); phi = pi and eta = xi = 0 are fixed
    def test_zero_amplitude(self):
        theta, rho_bar = scs_angles(ModelParams(g=2.0), 0.0)
        assert theta == 0.0
        assert rho_bar == 0.0

    def test_quarter_turn(self):
        theta, _ = scs_angles(ModelParams(g=0.5), 1.0)
        assert theta == pytest.approx(math.pi / 4, rel=1e-15)

    def test_reference_point(self):
        theta, rho_bar = scs_angles(ModelParams(g=1.5, zeta=1.0), math.sqrt(0.622))
        assert theta == pytest.approx(math.atan(2 * 1.5 * math.sqrt(0.622)), rel=1e-15)
        assert theta == pytest.approx(1.170, abs=1e-3)
        # phonon displacement carries the 1/omega_b factor of the
        # phonon-elimination stationarity condition
        assert rho_bar == pytest.approx(1.0 * 0.622 / 10.0, rel=1e-15)

    def test_reconstructs_level_splitting(self):
        # A(alpha, theta, phi) = omega_a cos(theta) - 2 g gb cos(eta) cos(phi) sin(theta)
        eta, phi = 0.0, math.pi
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = ModelParams(omega_a=rng.uniform(0.5, 2.0), g=rng.uniform(0.0, 3.0))
            gb = rng.uniform(0.0, 3.0)
            theta, _ = scs_angles(p, gb)
            rebuilt = (p.omega_a * math.cos(theta)
                       - 2.0 * p.g * gb * math.cos(eta) * math.cos(phi) * math.sin(theta))
            assert rebuilt == pytest.approx(float(level_splitting(p, gb)), rel=1e-12)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            scs_angles(REF, -0.1)

    def test_array_matches_scalar_bitwise(self):
        rng = np.random.default_rng(5)
        gb = np.concatenate([[0.0], rng.uniform(0.0, 3.0, 500),
                             10.0 ** rng.uniform(-150.0, 150.0, 500)])
        for p in (REF, ModelParams(omega_a=0.7, omega_b=3.0, g=2.3, zeta=0.4)):
            theta, rho_bar = scs_angles(p, gb)
            assert theta.shape == rho_bar.shape == gb.shape
            one = np.array([scs_angles(p, v) for v in gb.tolist()])
            assert np.array_equal(np.stack([theta, rho_bar], axis=1).view(np.int64),
                                  one.view(np.int64))

    def test_negative_entry_of_an_array_rejected(self):
        for i in (0, 3, 6):
            gb = np.linspace(0.0, 3.0, 7)
            gb[i] = -1e-300
            with pytest.raises(ValueError, match="gamma_bar must be >= 0"):
                scs_angles(REF, gb)


class TestObservables:
    # observable_terms gives (n_p, delta_n_a, n_b); the energy is scaled_energy
    def test_normal_zero_point(self):
        obs = (*observable_terms(REF, NORMAL, 0.0), scaled_energy(REF, NORMAL, 0.0))
        assert obs == (0.0, -0.5, 0.0, -0.5)

    def test_inverted_zero_point(self):
        obs = (*observable_terms(REF, INVERTED, 0.0), scaled_energy(REF, INVERTED, 0.0))
        assert obs == (0.0, +0.5, 0.0, +0.5)

    def test_superradiant_point(self):
        n_p, delta_n_a, n_b = observable_terms(REF, NORMAL, math.sqrt(X_S))
        assert n_p == pytest.approx(X_S, rel=1e-9)
        assert delta_n_a == pytest.approx(-0.194539251098, abs=1e-9)
        assert n_b == pytest.approx(0.00387963113196, rel=1e-8)
        assert scaled_energy(REF, NORMAL, math.sqrt(X_S)) == pytest.approx(EPS_S, abs=1e-9)

    def test_phonon_photon_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = ModelParams(omega=rng.uniform(0.5, 2), omega_a=rng.uniform(0.5, 2),
                            omega_b=rng.uniform(1, 20), g=rng.uniform(0, 3),
                            zeta=rng.uniform(0, 3))
            n_p, _, n_b = observable_terms(p, NORMAL, rng.uniform(0, 3))
            assert n_b * p.omega_b**2 == pytest.approx(p.zeta**2 * n_p**2, rel=1e-12)

    def test_zeta_zero_has_no_phonons(self):
        p = ModelParams(g=2.0, zeta=0.0)
        assert observable_terms(p, NORMAL, 1.3)[2] == 0.0


def test_tilt_ratio_matches_theta():
    assert tilt_ratio(REF, 0.4) == pytest.approx(math.tan(scs_angles(REF, 0.4)[0]), rel=1e-14)


@pytest.mark.parametrize("function", [scaled_energy, extremum_polynomial,
                                      extremum_polynomial_slope, curvature, observable_terms])
def test_branch_member_and_sign_array_agree_bitwise(function):
    # a SpinBranch is its sign: a member and an int array of its sign give the same bits
    gamma_bar = np.linspace(0.0, 3.0, 31)
    for branch in SpinBranch:
        by_member = np.array(function(REF, branch, gamma_bar))
        by_signs = np.array(function(REF, np.full(gamma_bar.size, int(branch)), gamma_bar))
        assert by_member.tobytes() == by_signs.tobytes(), branch
    assert (NORMAL, INVERTED) == (-1, +1)
