"""Limiting-case validations: attractive delta potential and hard-wall box.

Delta limit: halve the half-width while doubling the depth (a V0 fixed), so
the well collapses onto an attractive delta of fixed strength.  Scaled by
hbar^2 k0^4 / (m q^2), the forbidden-region polarizability tends to 5/4 and
the in-well one to zero.

Hard-wall limit: push the inside phase gamma0 -> pi/2.  There alpha1' -> 0,
alpha2' -> 0.0702247 and the bare trial value -> -0.1324176; the module
evaluates at pi/2 - eps for a decreasing eps sequence and extrapolates
eps -> 0.

Both studies, and the grid oracle's refinement over grid doublings, reach
their limits through the one helper ``extrapolate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dalgarno_lewis import alpha1_prime, alpha2_prime, alpha2_t_prime
from .errors import ConfigurationError, DomainError
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


def extrapolate(values: Sequence[float], ratio: float | None = None) -> float:
    """Limit of a sequence whose error shrinks by ``ratio`` from one value to the next.

    With ``ratio`` given this is Romberg's table: the error is a series in
    ratio, ratio^2, ... per step (h^2, h^4, ... under grid halving at 1/4),
    and each column eliminates the next power r, taking neighbours a, b to
    b + (b - a) r / (1 - r).  With no ``ratio``, r is measured as
    d_last / d_prev from the last three values and the one step is taken
    on the last two; a measured r that is zero, not finite, or of magnitude
    >= 0.95 (no geometric decay to exploit) returns values[-1] unchanged.
    """
    if ratio is None:
        d_last, d_prev = values[-1] - values[-2], values[-2] - values[-3]
        if d_prev == 0.0 or not math.isfinite(d_last / d_prev):
            return values[-1]
        ratio = d_last / d_prev
        if not 0.0 < abs(ratio) < 0.95:
            return values[-1]
        values = values[-2:]
    column, r = list(values), ratio
    while len(column) > 1:
        column = [b + (b - a) * r / (1.0 - r) for a, b in zip(column, column[1:])]
        r *= ratio
    return column[0]


def delta_limit(steps: int = 12) -> DeltaLimitSequence:
    """Run the collapsing-well sequence in natural units hbar = m = q = 1.

    The well starts at half-width a = 1 and depth V0 = 1/2 (R = 1) and is
    halved in width and doubled in depth ``steps`` times.
    """
    if steps < 8:
        raise DomainError(f"need at least 8 halving steps, got {steps!r}")
    if 2.0 ** (1 - steps) < 1e-12:
        raise ConfigurationError(
            f"{steps} halvings drive the half-width below 1e-12 of its start"
        )

    a_vals, v_vals, s1_vals, s2_vals = [], [], [], []
    for i in range(steps):
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
        steps=steps,
        a_values=tuple(a_vals),
        v0_values=tuple(v_vals),
        alpha1_scaled=tuple(s1_vals),
        alpha2_scaled=tuple(s2_vals),
        alpha1_extrapolated=extrapolate(s1_vals),
        alpha2_extrapolated=extrapolate(s2_vals),
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
