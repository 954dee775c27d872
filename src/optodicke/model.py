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

Every function of ``gamma_bar`` here is pure and accepts a scalar or an ndarray.
A branch is a SpinBranch member or an array of its signs (-1 normal, +1
inverted), one per column.  The solver's array kernel passes parameters whose
``g`` is an ndarray column, one coupling per row, and a sign per point column,
both broadcasting against ``gamma_bar``.  observable_terms gives the per-atom
observables (n_p, delta_n_a, n_b) and scs_angles the stationary angles (theta,
rho_bar), as tuples of numbers or of columns shaped like gamma_bar.  The closed
forms critical_coupling, turning_point, closure_estimate and sp_closure, and the
SolverError, NotFound and OutOfRange they raise, live here (solver re-exports
them) and need math alone (numpy loads only in level_splitting and scs_angles).
ModelParams is a slotted immutable class; its replace(**changes) checks anew.
"""

from __future__ import annotations

import math
import sys
from enum import Enum, IntEnum

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
    "InvalidInput",
    "SolverError", "NotFound", "OutOfRange",
    "critical_coupling", "closure_estimate", "turning_point", "sp_closure",
]

# Largest omega_a, and largest omega where the closure coupling
# sqrt(omega_b*omega^2/omega_a) is formed: the closed forms square them with
# Python's float power, which raises OverflowError from about 1.3e154 on.
SQUARE_LIMIT = 1e150
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


class InvalidInput(ValueError):
    """An input outside the domain its check accepts; the CLI maps it to exit 2."""


class SolverError(Exception):
    """Base class for solver failures."""


class NotFound(SolverError):
    """The requested critical point does not exist in the search window."""


class OutOfRange(SolverError):
    """A stationary point, or the closure coupling, does not fit in doubles."""


class SpinBranch(IntEnum):
    """Pseudospin orientation of the collective atomic state, as its sign.

    The member is the sign carried by the A/2 term of the scaled energy:
    NORMAL (all atoms following the lower dressed level) contributes -A/2,
    INVERTED (population inversion) contributes +A/2.
    """

    NORMAL = -1
    INVERTED = +1


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

    __slots__ = ("omega", "omega_a", "omega_b", "g", "zeta", "n_atoms")

    def __init__(self, omega=1.0, omega_a=1.0, omega_b=10.0, g=0.0, zeta=0.0, n_atoms=1) -> None:
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "omega_a", omega_a)
        object.__setattr__(self, "omega_b", omega_b)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "n_atoms", n_atoms)
        for name in ("omega", "omega_a", "omega_b", "g", "zeta"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInput(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("omega", "omega_a", "omega_b"):
            if not getattr(self, name) > 0.0:
                raise InvalidInput(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.omega_a > SQUARE_LIMIT:
            raise InvalidInput(f"omega_a must be <= {SQUARE_LIMIT:g}, where its square fits in "
                               f"a double, got {self.omega_a!r}")
        if self.g < 0.0:
            raise InvalidInput(f"g must be >= 0, got {self.g!r}")
        if self.zeta < 0.0:
            raise InvalidInput(f"zeta must be >= 0, got {self.zeta!r}")
        if not (self.n_atoms >= 1 and self.n_atoms % 1 == 0):  # False for NaN and inf too
            raise InvalidInput(f"n_atoms must be a positive integer, got {self.n_atoms!r}")

    def _values(self) -> tuple:
        return self.omega, self.omega_a, self.omega_b, self.g, self.zeta, self.n_atoms

    def replace(self, **changes) -> ModelParams:
        """A copy with the given fields changed, checked as every new instance is."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"ModelParams is immutable: cannot set or delete {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"ModelParams({', '.join(map('{}={!r}'.format, self.__slots__, self._values()))})"

    def __reduce__(self):  # pickle and copy rebuild through __init__, and so its checks
        return type(self), self._values()


def tilt_ratio(params: ModelParams, gamma_bar):
    """Spin tilt ratio f = 2*g*gamma_bar/omega_a (the tangent of theta)."""
    return 2.0 * params.g * gamma_bar / params.omega_a


def level_splitting(params: ModelParams, gamma_bar):
    """Dressed level splitting A = omega_a*sqrt(1 + f^2) >= omega_a."""
    import numpy as np  # here, not at the top: the closed forms below load no numpy
    f = tilt_ratio(params, gamma_bar)
    return params.omega_a * np.sqrt(1.0 + f * f)


def scaled_energy(params: ModelParams, branch: SpinBranch, gamma_bar):
    """Scaled variational energy eps of one branch at amplitude gamma_bar."""
    x = gamma_bar * gamma_bar
    quartic = params.omega * x - (params.zeta * params.zeta) * x * x / params.omega_b
    return quartic + branch * level_splitting(params, gamma_bar) / 2.0


def extremum_polynomial(params: ModelParams, branch: SpinBranch, gamma_bar):
    """Reduced extremum function p(gamma_bar) = eps' / (2*gamma_bar).

    p = omega - 2*zeta^2*gamma_bar^2/omega_b -/+ g^2/A.  Its positive roots
    are the nonzero stationary amplitudes; the sign of its slope at a root
    matches the sign of the energy curvature there.
    """
    x = gamma_bar * gamma_bar
    A = level_splitting(params, gamma_bar)
    return (params.omega - 2.0 * (params.zeta * params.zeta) * x / params.omega_b
            + branch * (params.g * params.g) / A)


def extremum_polynomial_slope(params: ModelParams, branch: SpinBranch, gamma_bar):
    """dp/dgamma_bar; at a root of p its sign is that of the energy curvature."""
    A = level_splitting(params, gamma_bar)
    return (-4.0 * (params.zeta * params.zeta) * gamma_bar / params.omega_b
            - branch * 4.0 * params.g**4 * gamma_bar / A**3)


def curvature(params: ModelParams, branch: SpinBranch, gamma_bar):
    """Second derivative of the scaled energy with respect to gamma_bar.

    2*(omega - 6*zeta^2*gamma_bar^2/omega_b -/+ g^2*omega_a^2/A^3); at
    gamma_bar = 0 this reduces to 2*(omega -/+ g^2/omega_a), the stability
    condition of the zero-photon states.
    """
    x = gamma_bar * gamma_bar
    A = level_splitting(params, gamma_bar)
    return 2.0 * (params.omega - 6.0 * (params.zeta * params.zeta) * x / params.omega_b
                  + branch * (params.g * params.g) * params.omega_a**2 / A**3)


def scs_angles(params: ModelParams, gamma_bar):
    """Closed-form stationary angles (theta, rho_bar) at amplitude gamma_bar >= 0.

    theta = arctan(f) is the polar angle of the spin unit vector and rho_bar =
    zeta*gamma_bar^2/omega_b the scaled phonon displacement rho/sqrt(N).  The
    azimuth and the boson phases are fixed, phi = pi and eta = xi = 0, so that
    cos(eta)*cos(phi) = -1 and the dressed splitting A comes out as the
    positive root.  The angles solve the same eigenvalue conditions on both
    pseudospin branches (only the sign of the spin projection differs).
    """
    import numpy as np
    if np.any(np.asarray(gamma_bar) < 0.0):
        raise InvalidInput("gamma_bar must be >= 0")
    theta = np.arctan(tilt_ratio(params, gamma_bar))
    return theta, params.zeta * gamma_bar * gamma_bar / params.omega_b


def observable_terms(params: ModelParams, branch: SpinBranch, gamma_bar):
    """n_p, delta_n_a and n_b at amplitude gamma_bar (scalar or ndarray)."""
    n_p = gamma_bar * gamma_bar
    delta_n_a = branch * params.omega_a / (2.0 * level_splitting(params, gamma_bar))
    n_b = params.zeta * n_p / params.omega_b
    return n_p, delta_n_a, n_b * n_b


def raw_amplitude(params: ModelParams, gamma_bar: float) -> float:
    """Unscaled cavity amplitude gamma = sqrt(N)*gamma_bar."""
    return math.sqrt(params.n_atoms) * gamma_bar


def critical_coupling(params: ModelParams) -> float:
    """Boundary g_c = sqrt(omega*omega_a) between NP(N-) and SP.

    Independent of omega_b, zeta and N: the oscillator does not move the
    normal-phase boundary.
    """
    return math.sqrt(params.omega * params.omega_a)


def _newton_down(step) -> float:
    """The root below t = 1 of an increasing convex function; step(t) gives value and slope.

    Newton steps from 1 decrease monotonically; they stop once t no longer falls.
    """
    t = 1.0
    while True:
        value, slope = step(t)
        t_next = t - value / slope
        if not t_next < t:
            return t
        t = t_next


def turning_point(params: ModelParams, zeta: float | None = None) -> float:
    """Fold coupling g_t where the stable and unstable SP roots merge.

    u = g_t^2 is the positive root of 4(omega*u + k)^3 = (27 zeta^2/(2 omega_b)) u^4
    with k = zeta^2 omega_a^2/(2 omega_b).  With sigma = zeta/sqrt(omega_b),
    u = (omega/(1.5 t))^3 / sigma^2 turns it into (tau*t)^4 + t - 1 = 0,
    tau = (27/16)^(1/4) zeta/closure_estimate, and g_t = w*sqrt(w*omega_b)/zeta,
    w = omega/(1.5 t), exact under scaling by powers of two (w^1.5 is not).
    Nothing overflows: g_t is inf only where it exceeds every double
    (closure_estimate raises OutOfRange where omega_b*omega^2/omega_a does not
    fit in a double).  params.g is ignored; zeta defaults to params.zeta.

    Raises NotFound for zeta = 0 (the superradiant region never closes) and
    when the fold is not a superradiant window: zeta >= closure_estimate,
    g_t <= g_c, or the merged splitting A* = (g_t^4/sigma^2)^(1/3) <= omega_a.
    """
    z = params.zeta if zeta is None else zeta
    if not z > 0.0:
        raise NotFound("no turning point: the superradiant region is unbounded at zeta=0")
    estimate = closure_estimate(params)
    ratio = z / estimate if estimate > 0.0 else math.inf
    if ratio < 1.0:
        root_wb = math.sqrt(params.omega_b)
        tau = (27.0 / 16.0) ** 0.25 * ratio  # t in (0, 1]; the left side is convex for t > 0
        t = _newton_down(lambda t: ((tau * t)**4 + t - 1.0, 4.0 * tau * (tau * t)**3 + 1.0))
        w = params.omega / (1.5 * t)
        w_b = w * params.omega_b
        g_t = w * (math.sqrt(w_b) if _TINY <= w_b <= _HUGE else math.sqrt(w) * root_wb) / z
        if g_t > critical_coupling(params) and g_t * g_t > z / root_wb * params.omega_a**1.5:
            return g_t
    raise NotFound(f"no stable superradiant root above g_c at zeta={z!r}: "
                   "the superradiant window is closed")


def closure_estimate(params: ModelParams) -> float:
    """Small-amplitude estimate of the closure coupling.

    Expanding p on the normal branch to first order in gamma_bar^2 at g = g_c
    gives the coefficient 2*(omega^2/omega_a - zeta^2/omega_b); the window
    closes exactly where it changes sign, zeta = sqrt(omega_b/omega_a)*omega,
    formed so that it overflows only where the estimate itself does not fit in
    a double.  OutOfRange there, and where omega > SQUARE_LIMIT.
    """
    if params.omega <= SQUARE_LIMIT:
        estimate = math.sqrt(params.omega_b / params.omega_a) * params.omega
        if math.isfinite(estimate):
            return estimate
    raise OutOfRange(f"omega={params.omega!r}, omega_a={params.omega_a!r}, "
                     f"omega_b={params.omega_b!r} is outside the range of the closure coupling "
                     f"sqrt(omega_b/omega_a)*omega, which needs omega <= {SQUARE_LIMIT:g} and "
                     "the coupling below the largest double")


def sp_closure(params: ModelParams, width_tol: float = 1e-3) -> float:
    """Smallest zeta whose superradiant window g_t - g_c is <= width_tol.

    The window narrows as zeta grows, so g_t = G = g_c + width_tol there.  In
    turning_point's t that is t^3 - t^2 + C^4 = 0, C = (27/16)^(1/4) sqrt(omega_b)
    (omega/1.5)^(3/2) / (closure_estimate G), with its root in [2/3, 1] reached by
    Newton steps from 1; zeta_star = sqrt(omega_b) (omega/(1.5 t))^(3/2) / G.  params.g
    and params.zeta are ignored.  The closed form holds in doubles where g_c^2 = omega
    omega_a and the numerator and denominator of C are normal doubles (C is then
    (4/27)^(1/4) g_c/G to rounding) and zeta_star is positive and finite; OutOfRange
    elsewhere, and where closure_estimate overflows.
    """
    if not width_tol > 0.0:
        raise InvalidInput("width_tol must be > 0")
    estimate = closure_estimate(params)  # first: it bounds omega, so omega^1.5 fits
    root_wb = math.sqrt(params.omega_b)
    g_top = critical_coupling(params) + width_tol
    numerator = (27.0 / 16.0) ** 0.25 * root_wb * (params.omega / 1.5) ** 1.5
    denominator = estimate * g_top
    if all(_TINY <= x <= _HUGE for x in (params.omega * params.omega_a, numerator, denominator)):
        c4 = (numerator / denominator)**4
        t = _newton_down(lambda t: (t * t * (t - 1.0) + c4, t * (3.0 * t - 2.0)))
        star = root_wb * (params.omega / (1.5 * t)) ** 1.5 / g_top
        if star > 0.0 and math.isfinite(star):
            return star
    raise OutOfRange(f"omega={params.omega!r}, omega_a={params.omega_a!r}, "
                     f"omega_b={params.omega_b!r}, width_tol={width_tol!r} is outside the range "
                     "of the closure coupling's closed form: a term of it underflows to 0, "
                     "becomes subnormal or overflows")
