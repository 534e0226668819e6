"""Independent high-precision oracles used to freeze expected test values.

Everything here is deliberately written against the *formulas* rather than
the package code: plain bisection for the quantisation root, direct mpmath
quadrature for integrals, and textbook box matrix elements.  Running this
module prints all frozen constants so they can be regenerated.
"""

from mpmath import mp, mpf, pi, sin, cos, tan, exp, sqrt, quad

mp.dps = 40


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


def nprime_sq(gamma) -> mpf:
    g = mpf(gamma)
    b = g * tan(g)
    return 1 / (1 + sin(g) * cos(g) / g + cos(g) ** 2 / b)


def phi_outer_reduced(gamma, x) -> mpf:
    g = mpf(gamma)
    b = g * tan(g)
    x = mpf(x)
    return cos(g) * exp(-b * (x - 1)) * (x * x / b + x / b**2)


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


def alpha_edge_matched_by_quadrature(gamma) -> mpf:
    """Polarizability 2 N'^2 int_0^inf psi0 x phi' dx of the edge-matched phi'."""
    g = mpf(gamma)
    b = g * tan(g)
    inner, outer = edge_matched_phi(g)
    inside = quad(lambda x: cos(g * x) * x * inner(x), [0, 1])
    outside = quad(lambda x: cos(g) * exp(-b * (x - 1)) * x * outer(x), [1, mp.inf])
    return nprime_sq(g) * 2 * (inside + outside)


def box_dipole_element(n: int) -> mpf:
    """|<1|x'|n>| for the unit-half-width hard-wall box, by quadrature."""

    def psi(k, x):
        wave = cos(k * pi * x / 2) if k % 2 else sin(k * pi * x / 2)
        return wave  # normalisation integral of each is exactly 1 on [-1, 1]

    return abs(quad(lambda x: psi(1, x) * x * psi(n, x), [-1, 1]))


def box_term(n: int) -> mpf:
    """Transition contribution 4 |x_1n|^2 / (E_n - E_1) from quadrature elements."""
    gap = (n * n - 1) * pi * pi / 4
    return 4 * box_dipole_element(n) ** 2 / gap


if __name__ == "__main__":
    import math

    g4 = bisect_gamma(4)
    print(f"R4_GAMMA0 = {float(g4)!r}")
    print(f"R4_BETA0 = {float(sqrt(mpf(16) - g4 * g4))!r}")
    for R in (1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 3.0, 10.0, 1e3, 1e6, 1e9):
        g = bisect_gamma(R)
        print(f"BETA0_BISECT[{R!r}] = {float(sqrt(mpf(R) ** 2 - g * g))!r}")
    g39 = mpf(0.39 * math.pi)
    print(f"NPRIME_SQ_039PI = {float(nprime_sq(g39))!r}")
    print(f"PHI_OUTER_X2_039PI = {float(phi_outer_reduced(g39, 2))!r}")
    print(f"ALPHA2T_QUAD_039PI = {float(alpha2_by_quadrature(g39))!r}")
    for gamma in ("1e-6", "1e-4", "1e-2"):
        g = mpf(float(gamma))
        value = alpha2_by_quadrature(g, -(pi / 2) ** 2 / g**2)
        print(f"ALPHA2_QUAD[{gamma}] = {float(value)!r}")
    print(f"BOX_X12 = {float(box_dipole_element(2))!r}")
    print(f"BOX_X14 = {float(box_dipole_element(4))!r}")
    print(f"BOX_TERM2 = {float(box_term(2))!r}")
    print(f"BOX_TERM4 = {float(box_term(4))!r}")
    for gamma_pi in ("0.05", "0.19", "0.39", "0.47", "0.499"):
        value = alpha_edge_matched_by_quadrature(mpf(float(gamma_pi) * math.pi))
        print(f"ALPHA_EXACT_QUAD[{gamma_pi}] = {float(value)!r}")
    print(f"HARD_WALL_ALPHA_EXACT = {float(20 / pi**4 - 4 / (3 * pi**2))!r}")
    print(f"HARD_WALL_ALPHA2T_EXACT = {float(20 / pi**4 - 4 / (3 * pi**2) - 2 / pi**2)!r}")
