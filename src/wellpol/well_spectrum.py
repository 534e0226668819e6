"""Ground state of the 1-D finite square well.

The potential is -V0 on (-a, a) and zero elsewhere.  The lowest bound state
is the even-parity solution

    psi0(x) = N cos(K0 x)                 |x| <= a
    psi0(x) = N cos(K0 a) e^{-k0(|x|-a)}  |x| >  a

with K0^2 = 2m(V0 - |E0|)/hbar^2 and k0^2 = 2m|E0|/hbar^2.  Everything in
this module works in the dimensionless variables

    gamma0 = K0 a,   beta0 = k0 a,   R^2 = 2 m a^2 V0 / hbar^2,

which satisfy the even-parity quantisation conditions

    gamma0 tan(gamma0) = beta0,   gamma0^2 + beta0^2 = R^2,

and the squared normalisation constant in units of 1/a

    N'^2 = 1 / [1 + sin(gamma0)cos(gamma0)/gamma0 + cos^2(gamma0)/beta0].

Dimensionful well parameters enter only through :class:`WellSpec`, which is
an adapter at the boundary of the otherwise dimensionless computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericalError

__all__ = [
    "GAMMA_MAX",
    "GAMMA_MIN",
    "WellSpec",
    "GroundState",
    "normalization_sq",
    "ground_state_from_R",
    "ground_state_from_gamma",
    "psi0_eval",
]

# Largest inside phase accepted by direct evaluation; tan(gamma) overflows
# double precision usefully beyond this point.
GAMMA_MAX = 0.5 * math.pi - 1e-9
# Smallest inside phase of any state: the closed-form alpha1' is built from
# 1/beta0^5 ~ gamma0^-10, which overflows below gamma0 ~ 1.5e-31.
GAMMA_MIN = 1e-30


@dataclass(frozen=True)
class WellSpec:
    """Dimensionful well parameters: half-width a, depth V0, mass, charge, hbar."""

    half_width: float
    depth: float
    mass: float
    charge: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("half_width", "depth", "mass", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"WellSpec.{name} must be finite and positive, got {value!r}")
        if not (math.isfinite(self.charge) and self.charge != 0.0):
            raise DomainError(f"WellSpec.charge must be finite and nonzero, got {self.charge!r}")
        if not math.isfinite(self.strength_R):
            raise DomainError("derived well strength R is not finite")

    @property
    def strength_R(self) -> float:
        """Dimensionless well strength sqrt(2 m a^2 V0) / hbar."""
        return math.sqrt(2.0 * self.mass * self.depth) * self.half_width / self.hbar

    @property
    def polarizability_unit(self) -> float:
        """Unit g = m q^2 a^4 / hbar^2 that makes polarizabilities dimensionless."""
        return self.mass * self.charge**2 * self.half_width**4 / self.hbar**2

    def ground_state(self) -> "GroundState":
        return ground_state_from_R(self.strength_R)


@dataclass(frozen=True)
class GroundState:
    """Solved even-parity ground state in dimensionless form.

    ``energy_dimless`` is E0 * 2 m a^2 / hbar^2 = -beta0^2.
    """

    gamma0: float
    beta0: float
    R: float
    n_prime_sq: float
    energy_dimless: float

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma0 < 0.5 * math.pi):
            raise DomainError(f"gamma0 must lie in (0, pi/2), got {self.gamma0!r}")
        if self.gamma0 < GAMMA_MIN:
            raise DomainError(
                f"gamma0 must be >= {GAMMA_MIN!r}, got {self.gamma0!r}; "
                "the closed-form polarizability overflows below it"
            )
        if not (self.beta0 > 0.0 and self.R > 0.0 and self.n_prime_sq > 0.0):
            raise DomainError("beta0, R and n_prime_sq must all be positive")
        # Quantisation residuals, each bounded relative to the terms it
        # compares, so a shallow well (every term ~R^2) is checked as
        # tightly as a deep one.  The tan form is evaluated in the
        # cos-multiplied shape; near gamma0 = pi/2, where tan is steep, one
        # ulp of gamma0 moves beta0 cos(gamma0) by ~beta0 ulp(gamma0), which
        # the second term of its bound allows.
        sin_part = self.gamma0 * math.sin(self.gamma0)
        cos_part = self.beta0 * math.cos(self.gamma0)
        r12 = sin_part - cos_part
        bound12 = 1e-10 * (sin_part + cos_part) + 4.0 * (1.0 + self.beta0) * math.ulp(self.gamma0)
        if abs(r12) > bound12:
            raise NumericalError(f"quantisation residual gamma*tan(gamma)-beta = {r12!r}")
        r13 = self.gamma0**2 + self.beta0**2 - self.R**2
        if abs(r13) > 1e-10 * (self.gamma0**2 + self.beta0**2 + self.R**2):
            raise NumericalError(f"strength residual gamma^2+beta^2-R^2 = {r13!r}")
        n2 = normalization_sq(self.gamma0, self.beta0)
        if abs(self.n_prime_sq - n2) > 1e-12 * n2:
            raise NumericalError("n_prime_sq inconsistent with gamma0, beta0")
        if self.energy_dimless != -self.beta0**2:
            raise NumericalError("energy_dimless must equal -beta0^2 exactly")

    @property
    def n_prime(self) -> float:
        return math.sqrt(self.n_prime_sq)


def normalization_sq(gamma0: float, beta0: float) -> float:
    """Squared reduced normalisation N'^2 = a N^2 of the ground state.

    Unlike the solvers, this accepts gamma0 = pi/2: the expression stays
    regular there and evaluates to 1.
    """
    if beta0 <= 0.0 or not math.isfinite(beta0):
        raise DomainError(f"beta0 must be positive, got {beta0!r}")
    if not (0.0 < gamma0 <= 0.5 * math.pi):
        raise DomainError(f"gamma0 must lie in (0, pi/2], got {gamma0!r}")
    return 1.0 / (
        1.0
        + math.sin(gamma0) * math.cos(gamma0) / gamma0
        + math.cos(gamma0) ** 2 / beta0
    )


def _make_state(gamma0: float, beta0: float, R: float) -> GroundState:
    return GroundState(
        gamma0=gamma0,
        beta0=beta0,
        R=R,
        n_prime_sq=normalization_sq(gamma0, beta0),
        energy_dimless=-beta0**2,
    )


def _solve_gamma(R: float) -> float:
    """Root of f(g) = g tan(g) - sqrt(R^2 - g^2) on (0, min(R, pi/2)).

    Bracketed bisection with a safeguarded secant step each iteration.  The
    bracket shrinks to adjacent floats, so the returned root is accurate to
    one ulp; f is monotone increasing on the bracket and the ground-state
    root is unique there.
    """
    upper = min(R, 0.5 * math.pi)
    # Keep the upper endpoint strictly below both singular points: tan at
    # pi/2 and the sqrt branch point at R (the root sits ~R^3/2 below R
    # for small R, hence the R-dependent margin).
    margin = 1e-12 if R > 0.5 * math.pi else min(1e-12, R**3 / 8.0)
    lo = min(1e-12, 0.25 * R)
    hi = upper - margin
    if not lo < hi:
        raise DomainError(f"R = {R!r} is too small to bracket a root")

    def f(g: float) -> float:
        rad = (R - g) * (R + g)
        return g * math.tan(g) - math.sqrt(rad if rad > 0.0 else 0.0)

    flo, fhi = f(lo), f(hi)
    if not (flo < 0.0 < fhi):
        raise NumericalError(f"failed to bracket the ground-state root for R = {R!r}")
    g_prev, f_prev = lo, flo
    g_cur, f_cur = hi, fhi
    stall = 0
    for _ in range(200):
        if hi - lo <= 2.0 * math.ulp(hi):
            break
        cand = 0.5 * (lo + hi)
        if stall < 2 and f_cur != f_prev:
            secant = g_cur - f_cur * (g_cur - g_prev) / (f_cur - f_prev)
            if lo < secant < hi:
                cand = secant
        width_before = hi - lo
        fc = f(cand)
        g_prev, f_prev = g_cur, f_cur
        g_cur, f_cur = cand, fc
        if fc > 0.0:
            hi = cand
        elif fc < 0.0:
            lo = cand
        else:
            return cand
        # Force bisection when secant steps stop shrinking the bracket.
        stall = stall + 1 if (hi - lo) > 0.5 * width_before else 0
    return 0.5 * (lo + hi)


def ground_state_from_R(R: float) -> GroundState:
    """Solve the quantisation conditions for a given well strength R."""
    if not (math.isfinite(R) and R > 0.0):
        raise DomainError(f"R must be finite and positive, got {R!r}")
    gamma0 = _solve_gamma(R)
    # sqrt((R-g)(R+g)) cancels where R and gamma0 nearly agree (shallow
    # wells, beta0 ~ R^2); tan is steep near pi/2 (deep wells).  Each form
    # is used where the other loses digits.
    if gamma0 < 0.25 * math.pi:
        beta0 = gamma0 * math.tan(gamma0)
    else:
        beta0 = math.sqrt((R - gamma0) * (R + gamma0))
    return _make_state(gamma0, beta0, R)


def ground_state_from_gamma(gamma0: float) -> GroundState:
    """Build the ground state directly from the inside phase gamma0."""
    if not (math.isfinite(gamma0) and 0.0 < gamma0 <= GAMMA_MAX):
        raise DomainError(
            f"gamma0 must lie in (0, pi/2 - 1e-9], got {gamma0!r}; "
            "use the limits module to approach the infinite-well edge"
        )
    beta0 = gamma0 * math.tan(gamma0)
    return _make_state(gamma0, beta0, math.hypot(gamma0, beta0))


def psi0_eval(state: GroundState, x_over_a: float) -> float:
    """Reduced ground-state wavefunction psi0 * sqrt(a) at x' = x/a.

    Even in x'; continuous across the well edge by construction.
    """
    n_prime = math.sqrt(state.n_prime_sq)
    ax = abs(x_over_a)
    if ax <= 1.0:
        return n_prime * math.cos(state.gamma0 * ax)
    return n_prime * math.cos(state.gamma0) * math.exp(-state.beta0 * (ax - 1.0))
