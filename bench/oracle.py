"""Reference physics for the benchmark's output checks.

Nothing here imports the package under test.  The stationary points come
from the depressed cubic in the dressed splitting A, the fold coupling from
the quartic it implies, and the Rabi ground energy from a dense Kronecker
product matrix and LAPACK's symmetric eigensolver, so a check never compares
the program with its own scan, bisection or Sturm counts.

Units follow the program: every frequency in units of omega_a.
"""

from __future__ import annotations

import math

import numpy as np


def critical_coupling(omega: float, omega_a: float) -> float:
    return math.sqrt(omega * omega_a)


def p_of_x(x, sign, g, zeta, omega, omega_a, omega_b):
    """Extremum function p in x = gamma_bar^2; sign -1 normal, +1 inverted."""
    A = np.sqrt(omega_a**2 + 4.0 * g * g * x)
    return omega - 2.0 * zeta**2 * x / omega_b + sign * g * g / A


def dp_dx(x, sign, g, zeta, omega, omega_a, omega_b):
    A = math.sqrt(omega_a**2 + 4.0 * g * g * x)
    return -2.0 * zeta**2 / omega_b - sign * 2.0 * g**4 / A**3


def energy_of_x(x, sign, g, zeta, omega, omega_a, omega_b):
    """Scaled variational energy eps at x = gamma_bar^2."""
    A = math.sqrt(omega_a**2 + 4.0 * g * g * x)
    return omega * x - zeta**2 * x * x / omega_b + sign * A / 2.0


def roots_x(sign, g, zeta, omega, omega_a, omega_b) -> list[float]:
    """Positive roots x of p on one branch, ascending.

    Multiplying p = 0 by A with c = zeta^2/(2 g^2 omega_b) gives
    c*A^3 - (omega + c*omega_a^2)*A - sign*g^2 = 0; a root counts when
    A > omega_a.  At g = 0 both branches reduce to the linear root
    x = omega*omega_b/(2 zeta^2).
    """
    if zeta == 0.0:
        if sign < 0 and g * g > omega * omega_a:
            return [g * g / (4.0 * omega**2) - omega_a**2 / (4.0 * g * g)]
        return []
    if g == 0.0:
        return [omega * omega_b / (2.0 * zeta**2)]
    c = zeta**2 / (2.0 * g * g * omega_b)
    b = omega + c * omega_a**2
    out = []
    for A in np.roots([c, 0.0, -b, -sign * g * g]):
        if abs(A.imag) > 1e-9 * abs(A):
            continue
        A = float(A.real)
        for _ in range(3):  # Newton polish on the cubic
            f, df = c * A**3 - b * A - sign * g * g, 3.0 * c * A * A - b
            if df == 0.0:
                break
            A -= f / df
        if A > omega_a:
            out.append((A - omega_a) * (A + omega_a) / (4.0 * g * g))
    return sorted(out)


def fold_coupling(zeta, omega=1.0, omega_a=1.0, omega_b=10.0) -> float | None:
    """Fold g_t where the stable and unstable normal-branch roots merge.

    The cubic's double root satisfies 4(omega*u + k)^3 = (27 zeta^2/(2 omega_b)) u^4
    with u = g^2 and k = zeta^2 omega_a^2/(2 omega_b).  That quartic has one
    positive root (one sign change); it is the fold when u > omega*omega_a and
    the merged splitting A* = (u^2 omega_b/zeta^2)^(1/3) exceeds omega_a.
    Returns None when there is no superradiant window (zeta = 0 or closed).
    """
    if zeta <= 0.0:
        return None
    a = 27.0 * zeta**2 / (2.0 * omega_b)
    k = zeta**2 * omega_a**2 / (2.0 * omega_b)

    def h(u):
        return a * u**4 - 4.0 * (omega * u + k) ** 3

    lo, hi = 0.0, 1.0
    while h(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if h(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    u = 0.5 * (lo + hi)
    a_star = (u * u * omega_b / zeta**2) ** (1.0 / 3.0)
    if u <= omega * omega_a or a_star <= omega_a:
        return None
    return math.sqrt(u)


def phase_label(g, zeta, g_c, g_t) -> str:
    """Ground-state label: N- below g_c, SP up to the fold g_t, N+ above it."""
    if g < g_c:
        return "NP_Nminus"
    if zeta == 0.0 or (g_t is not None and g < g_t):
        return "SP"
    return "NP_Nplus"


def window_width(zeta, omega=1.0, omega_a=1.0, omega_b=10.0) -> float:
    g_t = fold_coupling(zeta, omega, omega_a, omega_b)
    return 0.0 if g_t is None else g_t - critical_coupling(omega, omega_a)


def rabi_variational(g, omega, omega_a) -> float:
    if g <= critical_coupling(omega, omega_a):
        return -omega_a / 2.0
    return -(omega / 4.0) * (g**2 / omega**2 + omega_a**2 / g**2)


def rabi_dense_ground(g, omega, omega_a, n_max) -> float:
    """Lowest eigenvalue of the two-level (x) Fock Rabi matrix, built densely."""
    n = np.arange(n_max + 1, dtype=float)
    root = np.sqrt(n[1:])
    field = np.diag(root, 1) + np.diag(root, -1)
    h = (omega * np.kron(np.diag(n), np.eye(2))
         + 0.5 * omega_a * np.kron(np.eye(n_max + 1), np.diag([1.0, -1.0]))
         + 0.5 * g * np.kron(field, np.array([[0.0, 1.0], [1.0, 0.0]])))
    return float(np.linalg.eigvalsh(h)[0])
