"""Correctness references, written against the paper's formulas.

Nothing here imports ``wellpol``.  The quantisation root comes from plain
mpmath bisection, the polarizabilities from the paper's closed forms
evaluated at 60 significant digits, and the CLI tables from the printed
rows of the paper.  The worker process never imports this module, so
mpmath does not count towards a workload's memory.
"""

from __future__ import annotations

import math

from mpmath import cos, mp, mpf, pi, sin, sqrt, tan

# Enough digits for the 1/gamma0^5 cancellation in alpha2' at the small-R
# end of the sweep domain (R = 1e-8 gives gamma0 ~ 1e-8).
_DPS = 60

# Closed-form hard-wall values: the exact box polarizability
# 20/pi^4 - 4/(3 pi^2) = 0.0702247336, its bare trial value (C' = 0) and
# the one-term transition sum.
BOX_ALPHA = 20.0 / math.pi**4 - 4.0 / (3.0 * math.pi**2)
BOX_TRIAL_ALPHA = BOX_ALPHA - 2.0 / math.pi**2
ONE_TERM_ALPHA = 16384.0 / (243.0 * math.pi**6)
DELTA_ALPHA1_SCALED = 1.25
APR_COEFF = 0.0702247

# Printed Table 1: gamma0/pi -> (beta0, R, alpha1', alpha2', alpha', alpha_apr'),
# each as (value, tolerance of one unit in the last printed digit).  The
# 0.47 pi row's R is the misprint-corrected 15.689884 (the paper prints
# 15.589884, which violates gamma0^2 + beta0^2 = R^2 by 0.1).
TABLE1 = {
    0.39: ((3.403183, 1e-6), (3.617018, 1e-6), (0.015178, 1e-6),
           (0.173148, 1e-6), (0.188326, 1e-6), (0.186438, 1e-6)),
    0.41: ((4.433507, 1e-6), (4.616825, 1e-6), (0.005510, 1e-6),
           (0.147482, 1e-6), (0.152993, 1e-6), (0.153844, 1e-6)),
    0.43: ((6.043511, 1e-6), (6.192650, 1e-6), (0.001663, 1e-6),
           (0.125180, 1e-6), (0.126843, 1e-6), (0.127803, 1e-6)),
    0.45: ((8.925856, 1e-6), (9.037118, 1e-6), (0.000363, 1e-6),
           (0.106019, 1e-6), (0.106382, 1e-6), (0.106858, 1e-6)),
    0.47: ((15.620252, 1e-6), (15.689884, 1e-6), (3.99e-5, 1e-7),
           (0.089754, 1e-6), (0.089794, 1e-6), (0.089913, 1e-6)),
    0.49: ((48.983879, 1e-6), (49.008061, 1e-6), (4.24e-7, 1e-9),
           (0.076129, 1e-6), (0.076129, 1e-6), (0.076134, 1e-6)),
}

# Printed Table 2: gamma0/pi -> (beta0, R, alpha1', alpha2', alpha'); the
# three-significant-digit entries carry half a unit of their printed digit.
TABLE2 = {
    0.19: ((0.405655, 1e-6), (0.721698, 1e-6), (49.3, 0.5),
           (0.620993, 1e-6), (49.9, 0.5)),
    0.17: ((0.315849, 1e-6), (0.620477, 1e-6), (131.0, 5.0),
           (0.677762, 1e-6), (132.0, 5.0)),
    0.15: ((0.240108, 1e-6), (0.528884, 1e-6), (387.0, 5.0),
           (0.733438, 1e-6), (388.0, 5.0)),
}


def gamma_from_R(R: float) -> mpf:
    """Ground-state root of g tan(g) = sqrt(R^2 - g^2), by pure bisection."""
    with mp.workdps(_DPS):
        R = mpf(R)
        lo, hi = mpf("1e-30"), min(R, pi / 2) - mpf("1e-30")
        for _ in range(220):
            mid = (lo + hi) / 2
            if mid * tan(mid) - sqrt(R * R - mid * mid) > 0:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


def closed_forms(gamma) -> dict[str, float]:
    """Every column the CLI prints for one well, from the paper's formulas.

    alpha1' = N'^2 cos^2 g [1/b^2 + 5/(2b^3) + 5/(2b^4) + 5/(4b^5)],
    alpha2' = N'^2 [-1/(3g^2) + f1 cos 2g + f2 sin 2g] with C' = -(pi/2)^2/g^2,
    and alpha2_t' the same bracket with C' = 0.
    """
    with mp.workdps(_DPS):
        g = mpf(gamma)
        b = g * tan(g)
        n2 = 1 / (1 + sin(g) * cos(g) / g + cos(g) ** 2 / b)
        a1 = n2 * cos(g) ** 2 * (1 / b**2 + mpf(5) / (2 * b**3)
                                 + mpf(5) / (2 * b**4) + mpf(5) / (4 * b**5))
        c2, s2 = cos(2 * g), sin(2 * g)

        def bracket(c_prime):
            return (-1 / (3 * g**2) + c2 / (2 * g**2) - 5 * c2 / (4 * g**4)
                    + c_prime * c2 / (2 * g**2) - 5 * s2 / (4 * g**3)
                    + 5 * s2 / (8 * g**5) - c_prime * s2 / (4 * g**3))

        a2 = n2 * bracket(-(pi / 2) ** 2 / g**2)
        a2t = n2 * bracket(0)
        R = sqrt(g * g + b * b)
        return {
            "gamma0_over_pi": float(g / pi),
            "beta0": float(b),
            "R": float(R),
            "alpha1_prime": float(a1),
            "alpha2_prime": float(a2),
            "alpha2_t_prime": float(a2t),
            "alpha_prime": float(a1 + a2),
            "alpha_apr_prime": float(APR_COEFF * (1 + 1 / R) ** 4),
            "t_ratio": float((a2 - a2t) / a2),
        }


def alpha_prime_at_R(R: float) -> float:
    """alpha' of the well of strength R, root and closed forms in mpmath."""
    return closed_forms(gamma_from_R(R))["alpha_prime"]


def box_sum(num_terms: int) -> float:
    """Hard-wall transition sum over the first ``num_terms`` even levels."""
    with mp.workdps(_DPS):
        total = mpf(0)
        for k in range(1, num_terms + 1):
            n = 2 * k
            x1n = 16 * n / (pi**2 * (n * n - 1) ** 2)
            total += 4 * x1n**2 / ((n * n - 1) * pi**2 / 4)
        return float(total)
