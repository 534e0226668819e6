"""Sum-over-states polarizability of the hard-wall box, and C' calibration.

For a box of half-width a (width 2a) the dipole only couples the ground
state to the even-index levels, with analytic matrix elements

    x_{1n}/a = 16 n / (pi^2 (n^2 - 1)^2),   E_n' - E_1' = (n^2 - 1) pi^2 / 4

in energies of hbar^2/(2 m a^2).  Each transition adds
4 |x_{1n}'|^2 / (E_n' - E_1') to alpha' (units of g); the n = 2 term alone,
16384/(243 pi^6) ~ 0.0701317, carries more than 99% of the converged sum.

The sum is the conventional route that the Dalgarno-Lewis method avoids;
here it serves only as a comparison value, a plain float.  Each term is
the closed form 4096 n^2 / (pi^6 (n^2 - 1)^5), positive and strictly
decreasing in n.  Matching the one-term value against the closed-form
hard-wall expression fixes the homogeneous-correction coefficient to
C' ~ -1, which is the calibration reproduced by :func:`calibrate_C`.
"""

from __future__ import annotations

import math

from .dalgarno_lewis import alpha2_prime_hard_wall
from .errors import DomainError
from .well_spectrum import _require_int, _require_real

__all__ = ["infinite_well_term", "infinite_well_alpha", "calibrate_C"]

# Largest even transition index: the term ~4096 / (pi^6 n^8) is 2.4e-308
# here and falls below the smallest normal float from n ~ 3.43e38.
_MAX_EVEN_INDEX = 34 * 10**37

# Terms summed at most: the rest cannot move the rounded sum (tests/test_conventional_sum.py).
_CONVERGED_TERMS = 200


def infinite_well_term(n: int) -> float:
    """Contribution of the 1 -> n box transition to alpha', in units of g.

    Odd n vanishes by parity (those excited states share the ground state's
    parity, so the dipole matrix element is zero).  An even n above 3.4e38
    is refused: its term would not be a normal float.
    """
    _require_int("transition index", n, 2)
    if n % 2 == 1:
        return 0.0
    # Compared as ints: converting (n*n - 1)**2 to a float overflows from n ~ 1.2e77.
    if n > _MAX_EVEN_INDEX:
        raise DomainError(
            f"an even transition index must be <= {_MAX_EVEN_INDEX:.2g}, "
            "where the term nears the smallest normal float"
        )
    x1n = 16.0 * n / (math.pi**2 * (n * n - 1) ** 2)
    gap = (n * n - 1) * math.pi**2 / 4.0
    return 4.0 * x1n * x1n / gap


def infinite_well_alpha(num_terms: int) -> float:
    """alpha' over the first ``num_terms`` even-n transitions; fixed past ``_CONVERGED_TERMS``."""
    _require_int("num_terms", num_terms, 1)
    count = min(num_terms, _CONVERGED_TERMS)
    return math.fsum(infinite_well_term(2 * k) for k in range(1, count + 1))


def calibrate_C(target_alpha_prime: float) -> float:
    """Invert the hard-wall alpha'(C') for the C' hitting a target value.

    alpha2' at the hard-wall limit is affine in C', so a two-point
    evaluation determines the line, of slope -2/pi^2, and the solve is
    exact.  The converged conventional sum as a target returns C' = -1.  A
    target whose C' is not a finite float (a non-finite one, or one beyond
    ~3.6e307 in size) is refused.
    """
    target = _require_real("target", target_alpha_prime)
    intercept = alpha2_prime_hard_wall(0.0)
    slope = alpha2_prime_hard_wall(1.0) - intercept
    c_prime = (target - intercept) / slope
    if not math.isfinite(c_prime):
        raise DomainError(
            f"target {target_alpha_prime!r} gives C' = {c_prime!r}, not a finite float"
        )
    return c_prime
