"""Limiting-case validations: attractive delta potential and hard-wall box.

Delta limit: halve the half-width while doubling the depth (a V0 fixed), so
the well collapses onto an attractive delta of fixed strength.  Scaled by
hbar^2 k0^4 / (m q^2), the forbidden-region polarizability tends to 5/4 and
the in-well one to zero.  With hbar = m = q = 1 and a V0 = 1/2, R = sqrt(a),
and g k0^4 = a^4 (beta0/a)^4 scales a reduced polarizability by beta0^4.
gamma0 is odd in R and beta0 and N'^2 are even, so each scaled value is a
power series in a, which halves at every step: ratio 1/2.

Hard-wall limit: push the inside phase gamma0 -> pi/2.  There alpha1' -> 0,
alpha2' -> 0.0702247 and the bare trial value -> -0.1324176; the module
evaluates at pi/2 - eps for a decreasing eps sequence and extrapolates
eps -> 0.

Each study is a record that takes no input: ``delta_limit`` and
``infinite_well_limit`` are the record types themselves, whose constructors
run the studies from the module's constants.  Both read their values off
``breakdown``.  They, and the grid oracle's refinement over grid doublings,
reach their limits through the one helper ``extrapolate``, Romberg's table
at the ratio each study knows.
"""

from __future__ import annotations

import math
from typing import Sequence

from .dalgarno_lewis import breakdown
from .errors import DomainError, NumericalError
from .well_spectrum import _Record, _require_real, ground_state_from_R, ground_state_from_gamma

__all__ = [
    "extrapolate",
    "DeltaLimitSequence",
    "InfiniteWellLimitReport",
    "delta_limit",
    "infinite_well_limit",
]


class DeltaLimitSequence(_Record):
    """The collapsing-well sequence in natural units hbar = m = q = 1, and its limits.

    The well starts at half-width a = 1 and depth V0 = 1/2 (R = 1) and is
    halved in width and doubled in depth ``_DELTA_HALVINGS`` times.
    """

    __slots__ = ()
    _fields = ("a_values", "alpha1_scaled", "alpha2_scaled", "v0_values",
               "alpha1_extrapolated", "alpha2_extrapolated")

    def __new__(cls) -> "DeltaLimitSequence":
        a_values = tuple(1.0 / 2.0**i for i in range(_DELTA_HALVINGS))
        states = [ground_state_from_R(math.sqrt(a)) for a in a_values]
        rows = [(breakdown(s), s.beta0**4) for s in states]
        alpha1 = tuple(bd.alpha1_prime * scale for bd, scale in rows)
        alpha2 = tuple(bd.alpha2_prime * scale for bd, scale in rows)
        return tuple.__new__(cls, (a_values, alpha1, alpha2, tuple(0.5 / a for a in a_values),
                                   extrapolate(alpha1, 0.5), extrapolate(alpha2, 0.5)))


class InfiniteWellLimitReport(_Record):
    """The polarizabilities at gamma0 = pi/2 - eps, and their eps -> 0 limits.

    eps runs over ``_HARD_WALL_EPSILONS``; its smallest value keeps tan
    gamma0 well conditioned.
    """

    __slots__ = ()
    _fields = ("epsilons", "alpha1_values", "alpha2_values", "alpha2_t_values",
               "alpha1_limit", "alpha2_limit", "alpha2_t_limit")

    def __new__(cls) -> "InfiniteWellLimitReport":
        epsilons = _HARD_WALL_EPSILONS
        rows = [breakdown(ground_state_from_gamma(0.5 * math.pi - e)) for e in epsilons]
        columns = (tuple(bd.alpha1_prime for bd in rows), tuple(bd.alpha2_prime for bd in rows),
                   tuple(bd.alpha2_t_prime for bd in rows))
        # The error is a series in eps, so successive values shrink its terms
        # by powers of the epsilons' own ratio.
        ratio = epsilons[-1] / epsilons[-2]
        return tuple.__new__(cls, (epsilons, *columns,
                                   *(extrapolate(column, ratio) for column in columns)))


# Decreasing offsets eps of gamma0 = pi/2 - eps for the hard-wall limit.
_HARD_WALL_EPSILONS = (1e-3, 1e-5, 1e-7)

# Halvings of the collapsing well.  Romberg's table at ratio 1/2 takes the
# scaled alpha1 to 5/4 within 4.4e-16 and alpha2 to 1.7e-18 after 12; after
# 8 it leaves alpha2 at -1.3e-8.
_DELTA_HALVINGS = 12


def extrapolate(values: Sequence[float], ratio: float) -> float:
    """Limit of a sequence whose error is a series in ratio, ratio^2, ... per step.

    Romberg's table (h^2, h^4, ... under grid halving at ratio 1/4): each
    column eliminates the next power r of the ratio, taking neighbours a, b
    to b + (b - a) r / (1 - r).  DomainError unless ``values`` is non-empty, each
    a finite real, and 0 < ratio < 1, each real taken as its float (``_require_real``);
    NumericalError if a step overflows.
    """
    ratio = _require_real("ratio", ratio)
    if len(values) == 0 or not 0.0 < ratio < 1.0:
        raise DomainError(f"extrapolate needs values and 0 < ratio < 1, got "
                          f"{len(values)} values at ratio {ratio!r}")
    column, r = [_require_real(f"values[{i}]", v, True) for i, v in enumerate(values)], ratio
    while len(column) > 1:
        column = [b + (b - a) * r / (1.0 - r) for a, b in zip(column, column[1:])]
        r *= ratio
    if not math.isfinite(column[0]):
        raise NumericalError(f"extrapolate's table overflowed to {column[0]!r} at ratio {ratio!r}")
    return column[0]


delta_limit = DeltaLimitSequence
infinite_well_limit = InfiniteWellLimitReport
