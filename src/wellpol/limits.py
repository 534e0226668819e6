"""Limiting-case validations: attractive delta potential and hard-wall box.

Delta limit: halve the half-width while doubling the depth (a V0 fixed), so
the well collapses onto an attractive delta of fixed strength.  Scaled by
hbar^2 k0^4 / (m q^2), the forbidden-region polarizability tends to 5/4 and
the in-well one to zero.  With a V0 = 1/2 fixed, R^2 = 2 a^2 V0 = a; gamma0
is odd in R and beta0 and N'^2 are even, so each scaled value is a power
series in a, which halves at every step: ratio 1/2.

Hard-wall limit: push the inside phase gamma0 -> pi/2.  There alpha1' -> 0,
alpha2' -> 0.0702247 and the bare trial value -> -0.1324176; the module
evaluates at pi/2 - eps for a decreasing eps sequence and extrapolates
eps -> 0.

Both studies, and the grid oracle's refinement over grid doublings, reach
their limits through the one helper ``extrapolate``, Romberg's table at the
ratio each study knows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dalgarno_lewis import alpha1_prime, alpha2_prime, alpha2_t_prime
from .errors import ConfigurationError
from .well_spectrum import WellSpec, ground_state_from_gamma

__all__ = [
    "extrapolate",
    "DeltaLimitSequence",
    "InfiniteWellLimitReport",
    "delta_limit",
    "infinite_well_limit",
]


@dataclass(frozen=True)
class DeltaLimitSequence:
    """Per-step record of the collapsing-well study plus extrapolated limits."""

    steps: int
    a_values: tuple[float, ...]
    v0_values: tuple[float, ...]
    alpha1_scaled: tuple[float, ...]
    alpha2_scaled: tuple[float, ...]
    alpha1_extrapolated: float
    alpha2_extrapolated: float

    def __post_init__(self) -> None:
        products = [a * v for a, v in zip(self.a_values, self.v0_values)]
        ref = products[0]
        if any(abs(p - ref) > 1e-12 * abs(ref) for p in products):
            raise ConfigurationError("a * V0 drifted along the delta-limit sequence")


@dataclass(frozen=True)
class InfiniteWellLimitReport:
    """Hard-wall limit evaluations at gamma0 = pi/2 - eps and their eps -> 0 limits."""

    epsilons: tuple[float, ...]
    alpha1_values: tuple[float, ...]
    alpha2_values: tuple[float, ...]
    alpha2_t_values: tuple[float, ...]
    alpha1_limit: float
    alpha2_limit: float
    alpha2_t_limit: float


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
    to b + (b - a) r / (1 - r).
    """
    column, r = list(values), ratio
    while len(column) > 1:
        column = [b + (b - a) * r / (1.0 - r) for a, b in zip(column, column[1:])]
        r *= ratio
    return column[0]


def delta_limit() -> DeltaLimitSequence:
    """Run the collapsing-well sequence in natural units hbar = m = q = 1.

    The well starts at half-width a = 1 and depth V0 = 1/2 (R = 1) and is
    halved in width and doubled in depth ``_DELTA_HALVINGS`` times.
    """
    a_vals, v_vals, s1_vals, s2_vals = [], [], [], []
    for i in range(_DELTA_HALVINGS):
        a = 1.0 / 2.0**i
        v0 = 0.5 * 2.0**i
        spec = WellSpec(half_width=a, depth=v0, mass=1.0, charge=1.0, hbar=1.0)
        state = spec.ground_state()
        k0 = state.beta0 / a
        scale = k0**4  # hbar^2 k0^4 / (m q^2) in natural units
        a_vals.append(a)
        v_vals.append(v0)
        s1_vals.append(spec.polarizability_unit * alpha1_prime(state) * scale)
        s2_vals.append(spec.polarizability_unit * alpha2_prime(state) * scale)

    return DeltaLimitSequence(
        steps=_DELTA_HALVINGS,
        a_values=tuple(a_vals),
        v0_values=tuple(v_vals),
        alpha1_scaled=tuple(s1_vals),
        alpha2_scaled=tuple(s2_vals),
        alpha1_extrapolated=extrapolate(s1_vals, 0.5),
        alpha2_extrapolated=extrapolate(s2_vals, 0.5),
    )


def infinite_well_limit() -> InfiniteWellLimitReport:
    """Evaluate the polarizabilities at gamma0 = pi/2 - eps and extrapolate.

    eps runs over ``_HARD_WALL_EPSILONS``; its smallest value keeps tan
    gamma0 well conditioned.
    """
    eps = _HARD_WALL_EPSILONS
    a1, a2, a2t = [], [], []
    for e in eps:
        state = ground_state_from_gamma(0.5 * math.pi - e)
        a1.append(alpha1_prime(state))
        a2.append(alpha2_prime(state))
        a2t.append(alpha2_t_prime(state))

    # The error is a series in eps, so successive values shrink its terms
    # by powers of the epsilons' own ratio.
    ratio = eps[-1] / eps[-2]
    return InfiniteWellLimitReport(
        epsilons=eps,
        alpha1_values=tuple(a1),
        alpha2_values=tuple(a2),
        alpha2_t_values=tuple(a2t),
        alpha1_limit=extrapolate(a1, ratio),
        alpha2_limit=extrapolate(a2, ratio),
        alpha2_t_limit=extrapolate(a2t, ratio),
    )
