"""Closed-form ingredients of the spin-coherent-state variational treatment.

The system is N two-level atoms (transition frequency omega_a) coupled to a
single cavity mode (frequency omega, collective coupling g) whose photon
number is coupled to a mechanical oscillator (frequency omega_b) with
strength zeta via radiation pressure.  The trial state is a product of a
photon coherent state, a phonon coherent state, and a spin coherent state.
Eliminating the spin angles and the phonon displacement leaves the scaled
energy as a function of a single variable, the scaled cavity amplitude
gamma_bar = gamma / sqrt(N):

    eps(gamma_bar) = omega*gamma_bar^2 - (zeta^2/omega_b)*gamma_bar^4
                     -/+ A(gamma_bar)/2

with the dressed level splitting A = omega_a*sqrt(1 + f^2) and tilt ratio
f = 2*g*gamma_bar/omega_a.  The minus sign belongs to the normal pseudospin
branch, the plus sign to the population-inverted branch.  All quantities are
per atom and expressed in units of omega_a; none of them depends on N.

Every function here is pure and accepts scalar or ndarray ``gamma_bar``.
The solver's array kernel also passes parameters whose ``g`` is an ndarray
column, one coupling per row, which broadcasts against ``gamma_bar``.
observable_terms gives the per-atom observables (n_p, delta_n_a, n_b) and
scs_angles the stationary angles (theta, rho_bar), as tuples of numbers or
of columns shaped like gamma_bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ModelParams",
    "SpinBranch",
    "Stability",
    "PhaseLabel",
    "level_splitting",
    "tilt_ratio",
    "scaled_energy",
    "extremum_polynomial",
    "extremum_polynomial_slope",
    "curvature",
    "scs_angles",
    "observable_terms",
    "raw_amplitude",
    "SQUARE_LIMIT",
]

# Largest omega_a, and largest omega where the closure coupling
# sqrt(omega_b*omega^2/omega_a) is formed: the closed forms square them with
# Python's float power, which raises OverflowError from about 1.3e154 on.
SQUARE_LIMIT = 1e150


class SpinBranch(Enum):
    """Pseudospin orientation of the collective atomic state.

    The enum value is the sign carried by the A/2 term of the scaled energy:
    NORMAL (all atoms following the lower dressed level) contributes -A/2,
    INVERTED (population inversion) contributes +A/2.
    """

    NORMAL = -1
    INVERTED = +1

    @property
    def sign(self) -> int:
        return self.value


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


class PhaseLabel(Enum):
    """Ground-state classification.

    NP_NMINUS: zero photons, normal pseudospin.
    SP:        macroscopic photon occupation (superradiant), normal pseudospin.
    NP_NPLUS:  zero photons, inverted pseudospin (population inversion).
    """

    NP_NMINUS = "NP_Nminus"
    SP = "SP"
    NP_NPLUS = "NP_Nplus"


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters, all frequencies in units of omega_a.

    omega    : cavity frequency (> 0)
    omega_a  : atomic transition frequency (> 0 and <= SQUARE_LIMIT, default
               1; keep 1 unless a detuned run should re-express units)
    omega_b  : mechanical oscillator frequency (> 0)
    g        : collective atom-field coupling (>= 0)
    zeta     : photon-phonon (radiation pressure) coupling (>= 0)
    n_atoms  : atom count N (>= 1); scaled quantities never depend on it
    """

    omega: float = 1.0
    omega_a: float = 1.0
    omega_b: float = 10.0
    g: float = 0.0
    zeta: float = 0.0
    n_atoms: int = 1

    def __post_init__(self) -> None:
        for name in ("omega", "omega_a", "omega_b", "g", "zeta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("omega", "omega_a", "omega_b"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.omega_a > SQUARE_LIMIT:
            raise ValueError(f"omega_a must be <= {SQUARE_LIMIT:g}, where its square fits in "
                             f"a double, got {self.omega_a!r}")
        if self.g < 0.0:
            raise ValueError(f"g must be >= 0, got {self.g!r}")
        if self.zeta < 0.0:
            raise ValueError(f"zeta must be >= 0, got {self.zeta!r}")
        if not (self.n_atoms >= 1 and self.n_atoms % 1 == 0):  # False for NaN and inf too
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms!r}")


def tilt_ratio(params: ModelParams, gamma_bar):
    """Spin tilt ratio f = 2*g*gamma_bar/omega_a (the tangent of theta)."""
    return 2.0 * params.g * gamma_bar / params.omega_a


def level_splitting(params: ModelParams, gamma_bar):
    """Dressed level splitting A = omega_a*sqrt(1 + f^2) >= omega_a."""
    f = tilt_ratio(params, gamma_bar)
    return params.omega_a * np.sqrt(1.0 + f * f)


def scaled_energy(params: ModelParams, branch: SpinBranch, gamma_bar):
    """Scaled variational energy eps of one branch at amplitude gamma_bar."""
    x = gamma_bar * gamma_bar
    quartic = params.omega * x - (params.zeta * params.zeta) * x * x / params.omega_b
    return quartic + branch.sign * level_splitting(params, gamma_bar) / 2.0


def extremum_polynomial(params: ModelParams, branch: SpinBranch, gamma_bar):
    """Reduced extremum function p(gamma_bar) = eps' / (2*gamma_bar).

    p = omega - 2*zeta^2*gamma_bar^2/omega_b -/+ g^2/A.  Its positive roots
    are the nonzero stationary amplitudes; the sign of its slope at a root
    matches the sign of the energy curvature there.
    """
    x = gamma_bar * gamma_bar
    A = level_splitting(params, gamma_bar)
    return (params.omega - 2.0 * (params.zeta * params.zeta) * x / params.omega_b
            + branch.sign * (params.g * params.g) / A)


def extremum_polynomial_slope(params: ModelParams, branch: SpinBranch, gamma_bar):
    """dp/dgamma_bar, used for the Newton steps that polish the roots of p."""
    A = level_splitting(params, gamma_bar)
    return (-4.0 * (params.zeta * params.zeta) * gamma_bar / params.omega_b
            - branch.sign * 4.0 * params.g**4 * gamma_bar / A**3)


def curvature(params: ModelParams, branch: SpinBranch, gamma_bar):
    """Second derivative of the scaled energy with respect to gamma_bar.

    2*(omega - 6*zeta^2*gamma_bar^2/omega_b -/+ g^2*omega_a^2/A^3); at
    gamma_bar = 0 this reduces to 2*(omega -/+ g^2/omega_a), the stability
    condition of the zero-photon states.
    """
    x = gamma_bar * gamma_bar
    A = level_splitting(params, gamma_bar)
    return 2.0 * (params.omega - 6.0 * (params.zeta * params.zeta) * x / params.omega_b
                  + branch.sign * (params.g * params.g) * params.omega_a**2 / A**3)


def scs_angles(params: ModelParams, gamma_bar):
    """Closed-form stationary angles (theta, rho_bar) at amplitude gamma_bar >= 0.

    theta = arctan(f) is the polar angle of the spin unit vector and rho_bar =
    zeta*gamma_bar^2/omega_b the scaled phonon displacement rho/sqrt(N).  The
    azimuth and the boson phases are fixed, phi = pi and eta = xi = 0, so that
    cos(eta)*cos(phi) = -1 and the dressed splitting A comes out as the
    positive root.  The angles solve the same eigenvalue conditions on both
    pseudospin branches (only the sign of the spin projection differs).
    """
    if np.any(np.asarray(gamma_bar) < 0.0):
        raise ValueError("gamma_bar must be >= 0")
    theta = np.arctan(tilt_ratio(params, gamma_bar))
    return theta, params.zeta * gamma_bar * gamma_bar / params.omega_b


def observable_terms(params: ModelParams, branch: SpinBranch, gamma_bar):
    """n_p, delta_n_a and n_b at amplitude gamma_bar (scalar or ndarray)."""
    n_p = gamma_bar * gamma_bar
    delta_n_a = branch.sign * params.omega_a / (2.0 * level_splitting(params, gamma_bar))
    n_b = params.zeta * n_p / params.omega_b
    return n_p, delta_n_a, n_b * n_b


def raw_amplitude(params: ModelParams, gamma_bar: float) -> float:
    """Unscaled cavity amplitude gamma = sqrt(N)*gamma_bar."""
    return math.sqrt(params.n_atoms) * gamma_bar
