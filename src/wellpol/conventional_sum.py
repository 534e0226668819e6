"""Sum-over-states polarizability of the hard-wall box, and C' calibration.

For a box of half-width a (width 2a) the dipole only couples the ground
state to the even-index levels, with analytic matrix elements

    x_{1n}/a = 16 n / (pi^2 (n^2 - 1)^2),   E_n' - E_1' = (n^2 - 1) pi^2 / 4

in energies of hbar^2/(2 m a^2).  Each transition adds
4 |x_{1n}'|^2 / (E_n' - E_1') to alpha' (units of g); the n = 2 term alone,
16384/(243 pi^6) ~ 0.0701317, carries more than 99% of the converged sum.

Matching the one-term value against the closed-form hard-wall expression
fixes the homogeneous-correction coefficient to C' ~ -1, which is the
calibration reproduced by :func:`calibrate_C`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dalgarno_lewis import alpha2_prime_hard_wall
from .errors import DomainError, NumericalError

__all__ = ["InfiniteWellSum", "infinite_well_term", "infinite_well_alpha", "calibrate_C"]


@dataclass(frozen=True)
class InfiniteWellSum:
    """Partial sum of the box transition series for alpha'; the sum is derived."""

    term_values: tuple[float, ...]
    num_terms: int = field(init=False)
    partial_alpha_prime: float = field(init=False)

    def __post_init__(self) -> None:
        if any(t <= 0.0 for t in self.term_values):
            raise NumericalError("all contributing terms must be positive")
        for earlier, later in zip(self.term_values, self.term_values[1:]):
            if later >= earlier:
                raise NumericalError("term values must be strictly decreasing")
        object.__setattr__(self, "num_terms", len(self.term_values))
        object.__setattr__(self, "partial_alpha_prime", math.fsum(self.term_values))


def infinite_well_term(n: int) -> float:
    """Contribution of the 1 -> n box transition to alpha', in units of g.

    Odd n vanishes by parity (those excited states share the ground state's
    parity, so the dipole matrix element is zero).
    """
    if n < 2:
        raise DomainError(f"transition index must be >= 2, got {n!r}")
    if n % 2 == 1:
        return 0.0
    x1n = 16.0 * n / (math.pi**2 * (n * n - 1) ** 2)
    gap = (n * n - 1) * math.pi**2 / 4.0
    return 4.0 * x1n * x1n / gap


def infinite_well_alpha(num_terms: int) -> InfiniteWellSum:
    """Sum the first ``num_terms`` contributing (even-n) transitions."""
    if num_terms < 1:
        raise DomainError(f"num_terms must be >= 1, got {num_terms!r}")
    return InfiniteWellSum(tuple(infinite_well_term(2 * k) for k in range(1, num_terms + 1)))


def calibrate_C(target_alpha_prime: float) -> float:
    """Invert the hard-wall alpha'(C') for the C' hitting a target value.

    alpha2' at the hard-wall limit is affine in C', so a two-point
    evaluation determines the line and the solve is exact.  The converged
    conventional sum as a target returns C' = -1.
    """
    if not math.isfinite(target_alpha_prime):
        raise DomainError(f"target must be finite, got {target_alpha_prime!r}")
    intercept = alpha2_prime_hard_wall(0.0)
    slope = alpha2_prime_hard_wall(1.0) - intercept
    if abs(slope) < 1e-12:
        raise NumericalError("degenerate affine coefficient in C' calibration")
    return (target_alpha_prime - intercept) / slope
