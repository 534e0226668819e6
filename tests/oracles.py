"""Independent high-precision oracles used to freeze expected test values.

Everything here is deliberately written against the *formulas* rather than
the package code: plain bisection for the quantisation root, direct mpmath
quadrature for integrals, and textbook box matrix elements.  Running this
module prints all frozen constants so they can be regenerated; property
tests call ``cos_root`` live.

Each oracle sets its own working precision, ``DPS`` digits unless it takes
a ``dps``; importing the module leaves mpmath's global precision alone, so
a reference's digits do not depend on which test module was imported first.
"""

from mpmath import mp, mpf, pi, sin, cos, tan, exp, sqrt, quad, acos, asin, asinh, sinh

DPS = 40


@mp.workdps(DPS)
def bisect_gamma(R) -> mpf:
    """Ground-state root of g*tan(g) = sqrt(R^2 - g^2) by pure bisection."""
    R = mpf(R)
    lo, hi = mpf("1e-30"), min(R, pi / 2) - mpf("1e-30")
    for _ in range(220):
        mid = (lo + hi) / 2
        if mid * tan(mid) - sqrt(R * R - mid * mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def cos_root(R, dps=40) -> tuple[mpf, mpf]:
    """Ground state (gamma0, beta0) from g = R cos(g) by pure bisection.

    The same root as ``bisect_gamma``, reached through the cos form of the
    quantisation condition; beta0 = sqrt(R^2 - gamma0^2).  Both are
    returned at ``dps`` digits.
    """
    with mp.workdps(dps):
        R = mpf(R)
        lo, hi = mpf(0), min(R, pi / 2)
        while hi - lo > hi * mpf(10) ** -dps:
            mid = (lo + hi) / 2
            if mid - R * cos(mid) > 0:
                hi = mid
            else:
                lo = mid
        gamma = (lo + hi) / 2
        return gamma, sqrt(R * R - gamma * gamma)


def grid_phases(R, m: int, dps=40) -> tuple[mpf, mpf]:
    """(m theta, m mu) of the even bound state of the three-point grid, at ``dps`` digits.

    The grid has m nodes per unit length, the edge node taking half the well
    depth; its state is cos(k theta) up to the edge node k = m and
    cos(m theta) e^{-mu (k - m)} beyond.  The rows inside and beyond the well
    hold at one energy on the circle sin(theta/2) = rho cos(p),
    sinh(mu/2) = rho sin(p), rho = R/2m, and the edge row
    sin(theta) sin(m theta) = sinh(mu) cos(m theta) fixes p.  Its residual
    is positive where m theta reaches pi/2 (or mu = 0) and negative at
    p = pi/2; the Anderson-Bjorck bracketing solver keeps that bracket.
    """
    with mp.workdps(dps):
        rho = mpf(R) / (2 * m)

        def edge_row(p):
            theta, mu = 2 * asin(rho * cos(p)), 2 * asinh(rho * sin(p))
            return sin(theta) * sin(m * theta) - sinh(mu) * cos(m * theta)

        lo = acos(min(1, sin(pi / (4 * m)) / rho))
        p = mp.findroot(edge_row, (lo, pi / 2), solver="anderson")
        return 2 * m * asin(rho * cos(p)), 2 * m * asinh(rho * sin(p))


def alpha2_closed_form(gamma, c_prime=None, dps=80) -> mpf:
    """alpha2' = N'^2 x the paper's seven-term in-well bracket, at ``dps`` digits.

    Evaluated at the given (float) gamma0, so the terms that cancel from
    ~gamma0^-5 down to ~gamma0^-2 keep dps - 5 |log10 gamma0| digits.
    ``c_prime`` defaults to -(pi/2)^2 / gamma0^2; 0 gives alpha2_t'.
    """
    with mp.workdps(dps):
        g = mpf(gamma)
        c = -(pi / 2) ** 2 / g**2 if c_prime is None else mpf(c_prime)
        c2, s2 = cos(2 * g), sin(2 * g)
        bracket = (
            -1 / (3 * g**2) + c2 / (2 * g**2) - 5 * c2 / (4 * g**4) + c * c2 / (2 * g**2)
            - 5 * s2 / (4 * g**3) + 5 * s2 / (8 * g**5) - c * s2 / (4 * g**3)
        )
        return nprime_sq(g) * bracket


def nprime_sq(gamma) -> mpf:
    """N'^2 at the caller's precision.

    That is ``DPS`` digits from the oracles here, ``dps`` inside ``alpha2_closed_form``.
    """
    g = mpf(gamma)
    b = g * tan(g)
    return 1 / (1 + sin(g) * cos(g) / g + cos(g) ** 2 / b)


@mp.workdps(DPS)
def phi_outer_reduced(gamma, x) -> mpf:
    g = mpf(gamma)
    b = g * tan(g)
    x = mpf(x)
    return cos(g) * exp(-b * (x - 1)) * (x * x / b + x / b**2)


@mp.workdps(DPS)
def alpha2_by_quadrature(gamma, c_prime=0) -> mpf:
    """In-well polarizability of phi' with homogeneous coefficient C' via direct integration.

    C' = 0 is the bare trial solution; the paper's phi' has
    C' = -(pi/2)^2 / gamma^2.
    """
    g = mpf(gamma)
    c = mpf(c_prime)

    def phi(x):
        return -(x * x * sin(g * x) / g + x * cos(g * x) / g**2 + c * sin(g * x) / g)

    return nprime_sq(g) * 2 * quad(lambda x: cos(g * x) * x * phi(x), [0, 1])


@mp.workdps(DPS)
def edge_matched_phi(gamma):
    """Right-half pieces (inner, outer) of the edge-matched response phi'.

    Inside: the trial solution plus C sin(g x); outside: the paper's outer
    solution plus B e^{-b(x-1)}.  C and B are found by a linear solve that
    makes phi' and its numerically differentiated slope continuous at x = 1.
    """
    g = mpf(gamma)
    b = g * tan(g)

    def inner(x, C):
        return -(x * x * sin(g * x) / g + x * cos(g * x) / g**2) + C * sin(g * x)

    def outer(x, B):
        return cos(g) * exp(-b * (x - 1)) * (x * x / b + x / b**2) + B * exp(-b * (x - 1))

    one = mpf(1)
    # Value and slope conditions at x = 1, linear in (C, B).
    rows = [
        [sin(g), -1],
        [mp.diff(lambda x: sin(g * x), one), -mp.diff(lambda x: exp(-b * (x - 1)), one)],
    ]
    rhs = [
        outer(one, 0) - inner(one, 0),
        mp.diff(lambda x: outer(x, 0), one) - mp.diff(lambda x: inner(x, 0), one),
    ]
    C, B = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
    return (lambda x: inner(x, C)), (lambda x: outer(x, B))


@mp.workdps(DPS)
def alpha_edge_matched_by_quadrature(gamma) -> mpf:
    """Polarizability 2 N'^2 int_0^inf psi0 x phi' dx of the edge-matched phi'."""
    g = mpf(gamma)
    b = g * tan(g)
    inner, outer = edge_matched_phi(g)
    inside = quad(lambda x: cos(g * x) * x * inner(x), [0, 1])
    outside = quad(lambda x: cos(g) * exp(-b * (x - 1)) * x * outer(x), [1, mp.inf])
    return nprime_sq(g) * 2 * (inside + outside)


@mp.workdps(DPS)
def box_dipole_element(n: int) -> mpf:
    """|<1|x'|n>| for the unit-half-width hard-wall box, by quadrature."""

    def psi(k, x):
        wave = cos(k * pi * x / 2) if k % 2 else sin(k * pi * x / 2)
        return wave  # normalisation integral of each is exactly 1 on [-1, 1]

    return abs(quad(lambda x: psi(1, x) * x * psi(n, x), [-1, 1]))


@mp.workdps(DPS)
def box_term(n: int) -> mpf:
    """Transition contribution 4 |x_1n|^2 / (E_n - E_1) from quadrature elements."""
    gap = (n * n - 1) * pi * pi / 4
    return 4 * box_dipole_element(n) ** 2 / gap


if __name__ == "__main__":
    import math

    with mp.workdps(DPS):
        g4 = bisect_gamma(4)
        print(f"R4_GAMMA0 = {float(g4)!r}")
        print(f"R4_BETA0 = {float(sqrt(mpf(16) - g4 * g4))!r}")
        for R in (1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 3.0, 10.0, 1e3, 1e6, 1e9):
            g = bisect_gamma(R)
            print(f"BETA0_BISECT[{R!r}] = {float(sqrt(mpf(R) ** 2 - g * g))!r}")
            print(f"GAMMA0_BISECT[{R!r}] = {float(g)!r}")
        g39 = mpf(0.39 * math.pi)
        print(f"NPRIME_SQ_039PI = {float(nprime_sq(g39))!r}")
        print(f"PHI_OUTER_X2_039PI = {float(phi_outer_reduced(g39, 2))!r}")
        print(f"ALPHA2T_QUAD_039PI = {float(alpha2_by_quadrature(g39))!r}")
        for gamma in ("1e-6", "1e-4", "1e-2"):
            g = mpf(float(gamma))
            value = alpha2_by_quadrature(g, -(pi / 2) ** 2 / g**2)
            print(f"ALPHA2_QUAD[{gamma}] = {float(value)!r}")
        for gamma in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-15, 0.05, 0.07):
            pair = (float(alpha2_closed_form(gamma)), float(alpha2_closed_form(gamma, 0)))
            print(f"ALPHA2_SMALL[{gamma!r}] = {pair!r}")
        print(f"BOX_X12 = {float(box_dipole_element(2))!r}")
        print(f"BOX_X14 = {float(box_dipole_element(4))!r}")
        print(f"BOX_TERM2 = {float(box_term(2))!r}")
        print(f"BOX_TERM4 = {float(box_term(4))!r}")
        for gamma_pi in ("0.05", "0.19", "0.39", "0.47", "0.499"):
            value = alpha_edge_matched_by_quadrature(mpf(float(gamma_pi) * math.pi))
            print(f"ALPHA_EXACT_QUAD[{gamma_pi}] = {float(value)!r}")
        print(f"HARD_WALL_ALPHA_EXACT = {float(20 / pi**4 - 4 / (3 * pi**2))!r}")
        print(f"HARD_WALL_ALPHA2T_EXACT = {float(20 / pi**4 - 4 / (3 * pi**2) - 2 / pi**2)!r}")
