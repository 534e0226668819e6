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


def extrapolate(values: Sequence[float], ratio: float | None = None) -> float:
    """Limit of a sequence whose successive differences shrink by ``ratio``.

    Returns values[-1] + d_last * r / (1 - r), the sum of the geometric tail
    of differences.  With no ``ratio`` given, r is measured as
    d_last / d_prev from the last three values; a measured r that is zero,
    not finite, or of magnitude >= 0.95 (no geometric decay to exploit)
    returns values[-1] unchanged.
    """
    d_last = values[-1] - values[-2]
    if ratio is None:
        d_prev = values[-2] - values[-3]
        if d_prev == 0.0 or not math.isfinite(d_last / d_prev):
            return values[-1]
        ratio = d_last / d_prev
        if not 0.0 < abs(ratio) < 0.95:
            return values[-1]
    return values[-1] + d_last * ratio / (1.0 - ratio)


def delta_limit(
    steps: int = 12, a_start: float = 1.0, v0_start: float = 0.5
) -> DeltaLimitSequence:
    """Run the collapsing-well sequence in natural units hbar = m = q = 1."""
    if steps < 8:
        raise DomainError(f"need at least 8 halving steps, got {steps!r}")
    if a_start / 2.0 ** (steps - 1) < 1e-12 * a_start:
        raise ConfigurationError(
            f"{steps} halvings drive the half-width below 1e-12 of its start"
        )
    r_start = math.sqrt(2.0 * a_start**2 * v0_start)
    if not (math.isfinite(r_start) and r_start >= 0.01):
        raise DomainError(f"initial strength R = {r_start!r} must be >= 0.01")

    a_vals, v_vals, s1_vals, s2_vals = [], [], [], []
    for i in range(steps):
        a = a_start / 2.0**i
        v0 = v0_start * 2.0**i
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


def infinite_well_limit(
    epsilons: tuple[float, ...] = (1e-3, 1e-5, 1e-7)
) -> InfiniteWellLimitReport:
    """Evaluate the polarizabilities at gamma0 = pi/2 - eps and extrapolate."""
    eps = tuple(float(e) for e in epsilons)
    if len(eps) < 3:
        raise DomainError("need at least 3 epsilon values")
    if any(e <= 0.0 for e in eps):
        raise DomainError("epsilons must be positive")
    if any(later >= earlier for earlier, later in zip(eps, eps[1:])):
        raise DomainError("epsilons must be strictly decreasing")
    if eps[-1] < 1e-9:
        raise DomainError("smallest epsilon must be >= 1e-9 for stable tan evaluation")

    a1, a2, a2t = [], [], []
    for e in eps:
        state = ground_state_from_gamma(0.5 * math.pi - e)
        a1.append(alpha1_prime(state))
        a2.append(alpha2_prime(state))
        a2t.append(alpha2_t_prime(state))

    # The leading error is linear in eps, so successive differences shrink
    # with the epsilons themselves.
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
