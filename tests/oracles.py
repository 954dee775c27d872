"""Independent reference implementations used to check the package.

These deliberately avoid the package's own code paths: brute-force sign
scans, closed-form fold conditions, dense matrix diagonalization,
extended-precision Sturm counts and finite differences.
"""

import mpmath as mp
import numpy as np


def branch_energy(gamma_bar, sign, g, zeta, omega, omega_a, omega_b):
    """Scaled energy in arbitrary precision (for finite differences)."""
    x = mp.mpf(gamma_bar) ** 2
    A = mp.sqrt(mp.mpf(omega_a) ** 2 + 4 * mp.mpf(g) ** 2 * x)
    return mp.mpf(omega) * x - mp.mpf(zeta) ** 2 * x * x / mp.mpf(omega_b) + sign * A / 2


def fd_first(gamma_bar, sign, g, zeta, omega, omega_a, omega_b, h=1e-5):
    """Richardson-extrapolated central difference at base step h."""
    with mp.workdps(40):
        args = (sign, g, zeta, omega, omega_a, omega_b)
        gb, hh = mp.mpf(gamma_bar), mp.mpf(h)
        d_h = (branch_energy(gb + hh, *args) - branch_energy(gb - hh, *args)) / (2 * hh)
        d_h2 = (branch_energy(gb + hh / 2, *args) - branch_energy(gb - hh / 2, *args)) / hh
        return float((4 * d_h2 - d_h) / 3)


def fd_second(gamma_bar, sign, g, zeta, omega, omega_a, omega_b, h=1e-5):
    with mp.workdps(40):
        args = (sign, g, zeta, omega, omega_a, omega_b)
        gb, hh = mp.mpf(gamma_bar), mp.mpf(h)
        mid = branch_energy(gb, *args)
        d_h = (branch_energy(gb + hh, *args) - 2 * mid + branch_energy(gb - hh, *args)) / (hh * hh)
        d_h2 = (branch_energy(gb + hh / 2, *args) - 2 * mid
                + branch_energy(gb - hh / 2, *args)) / (hh * hh / 4)
        return float((4 * d_h2 - d_h) / 3)


def product_energy(gamma_bar, beta_bar, theta, g, zeta, omega, omega_a, omega_b):
    """Per-atom energy of the product of photon, phonon and spin coherent states, in mpmath.

    E = omega gamma_bar^2 + omega_b beta_bar^2 + 2 zeta gamma_bar^2 beta_bar
        - (omega_a/2) cos(theta) - g gamma_bar sin(theta),
    before the phonon displacement beta_bar and the spin angle theta are
    eliminated.  The normal branch is the theta-minimum, the inverted branch
    the theta-maximum of this same function.
    """
    gamma_bar, beta_bar, theta = (mp.mpf(v) for v in (gamma_bar, beta_bar, theta))
    x = gamma_bar * gamma_bar
    return (omega * x + omega_b * beta_bar**2 + 2 * zeta * x * beta_bar
            - mp.mpf(omega_a) / 2 * mp.cos(theta) - g * gamma_bar * mp.sin(theta))


def product_stationary_point(guess, g, zeta, omega, omega_a, omega_b):
    """The stationary point (gamma_bar, beta_bar, theta) of product_energy found from guess.

    mp.findroot on the gradient, then the point, its energy and its 3x3
    Hessian, all derivatives by mp.diff; at the working precision of the caller.
    """
    args = [mp.mpf(v) for v in (g, zeta, omega, omega_a, omega_b)]

    def energy(*v):
        return product_energy(*v, *args)

    def derivative(point, *axes):
        return mp.diff(energy, point, tuple(axes.count(k) for k in range(3)))

    found = mp.findroot(lambda *v: [derivative(v, k) for k in range(3)],
                        [mp.mpf(v) for v in guess])
    point = [found[k] for k in range(3)]
    hessian = mp.matrix([[derivative(point, i, j) for j in range(3)] for i in range(3)])
    return point, energy(*point), hessian


def p_of_x(x, sign, g, zeta, omega, omega_a, omega_b):
    A = np.sqrt(omega_a**2 + 4.0 * g * g * x)
    return omega - 2.0 * zeta**2 * x / omega_b + sign * g * g / A


def cubic_roots(sign, g, zeta, omega, omega_a, omega_b, dps=50):
    """x of every positive root of p on one branch, ascending, at dps digits.

    The roots A > omega_a of the depressed cubic c*A^3 - (omega + c*omega_a^2)*A
    - sign*g^2 = 0, c = zeta^2/(2 g^2 omega_b) (p = 0 times A), found by
    mp.polyroots from the exact values of the double inputs, so that the
    reference is the root of the problem the doubles state; x = (A^2 -
    omega_a^2)/(4 g^2).  Needs g > 0 and zeta > 0.
    """
    with mp.workdps(dps):
        g, zeta, omega, omega_a, omega_b = (mp.mpf(v) for v in (g, zeta, omega, omega_a, omega_b))
        c = zeta**2 / (2 * g**2 * omega_b)
        roots = mp.polyroots([c, 0, -(omega + c * omega_a**2), -sign * g**2],
                             maxsteps=200, extraprec=4 * dps)
        found = [mp.re(a) for a in roots if abs(mp.im(a)) <= mp.mpf(10) ** (5 - dps) * abs(a)]
        return sorted((a * a - omega_a**2) / (4 * g**2) for a in found if a > omega_a)


def scan_roots(sign, g, zeta, omega, omega_a, omega_b, n_points=100_000):
    """Dense sign scan in x plus bisection; returns root x values."""
    top = omega + (g * g / omega_a if sign > 0 else 0.0)
    if zeta == 0.0:
        if sign > 0 or g * g <= omega * omega_a:
            return []
        return [g**2 / (4 * omega**2) - omega_a**2 / (4 * g**2)]
    x_hi = 1.2 * top * omega_b / (2.0 * zeta**2)
    xs = np.linspace(0.0, x_hi, n_points + 1)
    ps = p_of_x(xs, sign, g, zeta, omega, omega_a, omega_b)
    roots = [xs[i] for i in np.nonzero(ps[1:-1] == 0.0)[0] + 1]  # exact zeros on the grid
    for i in np.nonzero(ps[:-1] * ps[1:] < 0.0)[0]:
        lo, hi = xs[i], xs[i + 1]
        flo = ps[i]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = p_of_x(mid, sign, g, zeta, omega, omega_a, omega_b)
            if fm == 0.0:
                lo = hi = mid
            elif flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo < 1e-14 * max(1.0, hi):
                break
        roots.append(0.5 * (lo + hi))
    return sorted(roots)


def fold_gt(zeta, omega=1.0, omega_a=1.0, omega_b=10.0):
    """Turning point from the closed-form fold condition.

    The interior maximum of p on the normal branch sits where
    A^3 = omega_b*g^4/zeta^2; the fold is where p vanishes there.  p at the
    maximum decreases strictly in g, so bisection applies.
    """
    def F(g):
        Astar = (omega_b * g**4 / zeta**2) ** (1.0 / 3.0)
        if Astar <= omega_a:
            return np.nan
        xstar = (Astar**2 - omega_a**2) / (4.0 * g * g)
        return p_of_x(xstar, -1, g, zeta, omega, omega_a, omega_b)

    g_c = np.sqrt(omega * omega_a)
    lo, hi = g_c * (1 + 1e-12), 60.0 * g_c
    if not F(lo) > 0.0:
        raise ValueError("no fold: window closed at this zeta")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if F(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def rabi_dense(omega, omega_a, g, n_max):
    """Two-level (x) truncated-Fock Rabi matrix, built with Kronecker products."""
    dim = n_max + 1
    n = np.arange(dim, dtype=float)
    x_op = np.diag(np.sqrt(n[1:]), 1) + np.diag(np.sqrt(n[1:]), -1)
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return (omega * np.kron(np.diag(n), np.eye(2))
            + 0.5 * omega_a * np.kron(np.eye(dim), sz)
            + 0.5 * g * np.kron(x_op, sx))


def rabi_dense_ground(omega, omega_a, g, n_max):
    return float(np.linalg.eigvalsh(rabi_dense(omega, omega_a, g, n_max))[0])


def rabi_parity_block(omega, omega_a, g, n_max, parity):
    """Diagonal d_n = omega n + parity (omega_a/2) (-1)^n and offdiagonal t_n = (g/2) sqrt(n+1)."""
    n = np.arange(n_max + 1, dtype=float)
    return omega * n + parity * 0.5 * omega_a * (-1.0) ** n, 0.5 * g * np.sqrt(n[1:])


def count_at_or_below(diag, off, x, dps=150):
    """Eigenvalues at or below x of the symmetric tridiagonal (diag, off), at dps digits.

    Sylvester's inertia of T - x, from its LDL^T pivots q_i = d_i - x -
    t_(i-1)^2 / q_(i-1) in mpmath, with no early stop: each pivot <= 0
    counts.  A zero pivot stands for x raised by an infinitesimal, so the
    pivot after it is +inf where its coupling is nonzero.  The counts are
    those of a block whose entries moved by about 10^-dps of its norm:
    at 150 digits far below 1e-12 for norms up to 1e110, where a dense
    eigvalsh errs by eps times the norm.
    """
    with mp.workdps(dps):
        x, q, count = mp.mpf(x), mp.inf, 0
        for i, d in enumerate(diag):
            t2 = mp.mpf(off[i - 1]) ** 2 if i else 0
            q = (mp.mpf(d) - x if t2 == 0 or mp.isinf(q)
                 else mp.inf if q == 0 else mp.mpf(d) - x - t2 / q)
            count += q <= 0
    return count


def tridiagonal_dense(diag, off):
    """The dense symmetric tridiagonal matrix with diagonal diag and offdiagonal off."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


# Relative margin of the diagonal-dominance rule (rabi._DOMINANCE).
DOMINANCE = 1e-8


def dominant_tail(diag, radii, hi, pivmin):
    """1 plus the last row j of any column with d_j - hi - (1 + m) r_j - m(|d_j| + |hi|) <= pivmin.

    A plain loop over rows and columns; m = DOMINANCE and r_j the Gershgorin radius.
    """
    m = DOMINANCE
    tail = 0
    for i in range(diag.shape[0]):
        for j in range(diag.shape[1]):
            d, h = float(diag[i, j]), float(hi[j])
            if not d - h - (1.0 + m) * float(radii[i, j]) - m * (abs(d) + abs(h)) > pivmin[j]:
                tail = i + 1
    return tail


def gershgorin_bracket(diag, off):
    """(lo, hi, pivmin, tail, scale) of every column's whole block (diag (n, k), off (n - 1, k)).

    [lo, hi] = [min_i d_i - r_i, min_i d_i] with Gershgorin radii
    r_i = |t_(i-1)| + |t_i|, pivmin = max(1, max_i t_i^2) times the smallest
    normal double, tail the dominant_tail below hi, and scale
    max(1, max_i |d_i| + r_i), the residual scale.
    """
    radii = np.zeros(diag.shape)
    radii[1:] += np.abs(off)
    radii[:-1] += np.abs(off)
    pivmin = np.max(off * off, axis=0, initial=1.0) * np.finfo(float).tiny
    hi = diag.min(axis=0)
    return ((diag - radii).min(axis=0), hi, pivmin, dominant_tail(diag, radii, hi, pivmin),
            np.maximum((np.abs(diag) + radii).max(axis=0), 1.0))


def braak_g(x, sign, delta, c):
    """Braak's G_sign(x) of H/omega = a^dag a + c sigma_x (a + a^dag) + delta sigma_z, in mpmath.

    G_+-(x) = sum_n K_n(x) (1 -+ delta/(x - n)) c^n, with K_0 = 1, K_1 = f_0,
    n K_n = f_(n-1) K_(n-1) - K_(n-2) and f_n(x) = 2c + (n - x + delta^2/(x - n))/(2c)
    (D. Braak, Phys. Rev. Lett. 107, 100401 (2011)).  Its zeros are the
    regular eigenvalues x = E/omega + c^2 of one parity sector, without any
    Fock truncation; it has poles at x = 0, 1, 2, ...  The terms fall about
    like 2^-n, and the sum stops after three in a row below the working
    precision.  Needs c > 0.
    """
    x, delta, c = mp.mpf(x), mp.mpf(delta), mp.mpf(c)

    def f(n):
        return 2 * c + (n - x + delta**2 / (x - n)) / (2 * c)

    k_prev, k = mp.mpf(1), f(0)
    total = (1 - sign * delta / x) + k * (1 - sign * delta / (x - 1)) * c
    power, n, small = c, 1, 0
    while small < 3:
        n += 1
        k_prev, k = k, (f(n - 1) * k - k_prev) / n
        power *= c
        term = k * (1 - sign * delta / (x - n)) * power
        total += term
        small = small + 1 if n > x and abs(term) <= mp.eps * abs(total) else 0
    return total


def braak_ground(omega, omega_a, g, guess):
    """The zero x of Braak's G_- nearest the guess energy, and E = omega (x - c^2).

    The package's H = omega a^dag a + (omega_a/2) sigma_z + (g/2) sigma_x (a + a^dag)
    is omega times Braak's with delta = omega_a/(2 omega) and c = g/(2 omega).
    Returns (E, x, delta, c) at 20 digits; mp.findroot (secant) starts at the
    guess and 1e-9 above it.  That x is the lowest zero of either G is the
    caller's to check, with braak_sign_changes.
    """
    with mp.workdps(20):
        delta, c = mp.mpf(omega_a) / (2 * omega), mp.mpf(g) / (2 * omega)
        start = mp.mpf(guess) / omega + c * c
        x = mp.findroot(lambda v: braak_g(v, -1, delta, c), (start, start + mp.mpf("1e-9")))
        return omega * (x - c * c), x, delta, c


def braak_sign_changes(sign, delta, c, lo, hi, points=12):
    """Grid cells of [lo, hi) where G_sign changes sign with no pole x = n inside: its zeros there.

    G_sign is sampled at `points` equally spaced points from lo on; a sign
    flip across a pole is not a zero.  Returns the cells (a, b), at 15 digits.
    """
    with mp.workdps(15):
        xs = [lo + (hi - lo) * k / points for k in range(points)]
        signs = [mp.sign(braak_g(x, sign, delta, c)) for x in xs]
        return [(a, b) for a, b, sa, sb in zip(xs, xs[1:], signs, signs[1:])
                if sa != sb and mp.floor(a) == mp.floor(b)]
