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

or, with both folded into one smooth monotone equation,

    cos(gamma0) = gamma0 / R,   sin(gamma0) = beta0 / R,

and the squared normalisation constant in units of 1/a

    N'^2 = 1 / [1 + sin(gamma0)cos(gamma0)/gamma0 + cos^2(gamma0)/beta0].

Dimensionful well parameters enter only through :class:`WellSpec`, which is
an adapter at the boundary of the otherwise dimensionless computation.
"""

from __future__ import annotations

import math
import operator
import sys

from .errors import DomainError, NumericalError

__all__ = [
    "GAMMA_MAX",
    "GAMMA_MIN",
    "WellSpec",
    "GroundState",
    "ground_state_from_R",
    "ground_state_from_gamma",
]

# Largest inside phase accepted by direct evaluation; tan(gamma) overflows
# double precision usefully beyond this point.
GAMMA_MAX = 0.5 * math.pi - 1e-9
# Smallest inside phase of any state: the closed-form alpha1' is built from
# 1/beta0^5 ~ gamma0^-10, which overflows below gamma0 ~ 1.5e-31.
GAMMA_MIN = 1e-30
# Cap on Newton steps in the root solve; on R in [1e-8, 1e9] it stops after
# one step in the median and five at most.
_NEWTON_STEPS = 40


def _shown(value) -> str:
    """``value`` as a refusal prints it: an int past 100 digits by sign and bit length.

    Python prints no int past 4,300 digits; every other value is its repr.
    """
    if isinstance(value, int) and abs(value) >= 10**100:
        return f"a {'negative' if value < 0 else 'positive'} int of {value.bit_length()} bits"
    return repr(value)


def _require_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Refuse with DomainError any ``value`` but an int, not a bool, in [minimum, maximum]."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        rule = f"an integer >= {minimum}"
    elif maximum is not None and value > maximum:
        rule = f"<= {maximum}"
    else:
        return
    raise DomainError(f"{name} must be {rule}, got {_shown(value)}")


def _require_real(name: str, value, finite: bool = False) -> float:
    """``value`` as a float; DomainError: bool, text, past the floats, or nan/inf if ``finite``."""
    # bool is an int subclass, but True is not the number 1; float() would parse text.
    if isinstance(value, (bool, str, bytes, bytearray)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise DomainError(f"{name} must be within the float range, got {_shown(value)}") from None
    if finite and not math.isfinite(real):
        raise DomainError(f"{name} must be finite, got {real!r}")
    return real


class _Record(tuple):
    """Read-only record in place of a frozen dataclass, without importing ``dataclasses``.

    A tuple of the fields in ``_fields``, each read by a property, built whole by
    ``__new__``; with ``__slots__ = ()`` in every subclass no record has a ``__dict__``.
    Records index and iterate like tuples, but their fields are the interface.  A
    record equals only a record of its own type, and records are not ordered.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(operator.itemgetter(i)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError(f"{type(self).__qualname__} records are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __reduce__(self):
        # copy and pickle rebuild the record from its inputs, the leading fields.
        return type(self), self[: self.__new__.__code__.co_argcount - 1]


class WellSpec(_Record):
    """Dimensionful well parameters: half-width a, depth V0, mass, charge, hbar."""

    __slots__ = ()
    _fields = ("half_width", "depth", "mass", "charge", "hbar")

    def __new__(cls, half_width: float, depth: float, mass: float, charge: float,
                hbar: float = 1.0) -> "WellSpec":
        self = tuple.__new__(cls, (half_width, depth, mass, charge, hbar))
        for name, value in zip(cls._fields, self):
            real = _require_real(f"WellSpec.{name}", value)
            if name != "charge" and not (math.isfinite(real) and real > 0.0):
                raise DomainError(f"WellSpec.{name} must be finite and positive, got {value!r}")
        if not (math.isfinite(charge) and charge != 0.0):
            raise DomainError(f"WellSpec.charge must be finite and nonzero, got {charge!r}")
        if not math.isfinite(self.strength_R):
            raise DomainError("derived well strength R is not finite")
        try:
            unit = self.polarizability_unit
        except (OverflowError, ZeroDivisionError):  # a power past the float range, or hbar^2 == 0
            unit = math.inf
        if not 0.0 < unit < math.inf:
            raise DomainError(f"derived polarizability unit is {unit}, not finite and positive")
        return self

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


class GroundState(_Record):
    """Solved even-parity ground state in dimensionless form.

    ``n_prime_sq`` and ``energy_dimless`` = E0 * 2 m a^2 / hbar^2 = -beta0^2 are derived.
    """

    __slots__ = ()
    _fields = ("gamma0", "beta0", "R", "n_prime_sq", "energy_dimless")

    def __new__(cls, gamma0: float, beta0: float, R: float) -> "GroundState":
        if bool in (type(gamma0), type(beta0), type(R)):
            raise DomainError("GroundState takes real numbers, got a bool")
        try:
            if not (0.0 < gamma0 < 0.5 * math.pi):
                raise DomainError(f"gamma0 must lie in (0, pi/2), got {_shown(gamma0)}")
            if gamma0 < GAMMA_MIN:
                raise DomainError(f"gamma0 must be >= {GAMMA_MIN!r}, got {gamma0!r}; the "
                                  "closed-form polarizability overflows below it")
            if not (beta0 > 0.0 and R > 0.0):
                raise DomainError("beta0 and R must both be positive")
        except TypeError:  # text or None, which no number compares with
            raise DomainError("GroundState takes real numbers, got a non-number") from None
        # The residuals below square both: an infinite one would meet its infinite
        # bound, and a square or an int past the float range raises OverflowError.
        for name, value in (("beta0", beta0), ("R", R)):
            if not value * value <= sys.float_info.max:
                raise DomainError(f"{name} must be finite and positive with a finite square, "
                                  f"got {_shown(value)}")
        # Quantisation residuals, each bounded relative to the terms it
        # compares, so a shallow well (every term ~R^2) is checked as
        # tightly as a deep one.  gamma0 tan(gamma0) = beta0 is evaluated
        # in the cos-multiplied shape; near gamma0 = pi/2 one ulp of gamma0
        # moves beta0 cos(gamma0) by ~beta0 ulp(gamma0), which the second
        # term of its bound allows.  For a state solved from R, where
        # beta0 = R sin(gamma0), this residual is sin(gamma0) times the
        # root solve's g - R cos(g).
        s, c = math.sin(gamma0), math.cos(gamma0)
        sin_part = gamma0 * s
        cos_part = beta0 * c
        r12 = sin_part - cos_part
        bound12 = 1e-10 * (sin_part + cos_part) + 4.0 * (1.0 + beta0) * math.ulp(gamma0)
        if abs(r12) > bound12:
            raise NumericalError(f"quantisation residual gamma*tan(gamma)-beta = {r12!r}")
        r13 = gamma0**2 + beta0**2 - R**2
        if abs(r13) > 1e-10 * (gamma0**2 + beta0**2 + R**2):
            raise NumericalError(f"strength residual gamma^2+beta^2-R^2 = {r13!r}")
        # N'^2 of the module docstring.
        n_prime_sq = 1.0 / (1.0 + s * c / gamma0 + c**2 / beta0)
        return tuple.__new__(cls, (gamma0, beta0, R, n_prime_sq, -beta0**2))


def _solve_gamma(R: float) -> float:
    """Root of f(g) = g - R cos(g) on (0, min(R, pi/2)) by Newton's method.

    On (0, pi/2) f' = 1 + R sin(g) > 0 and f'' = R cos(g) >= 0, so f is
    increasing and convex and Newton started right of the root decreases
    monotonically onto it.  Iteration stops once a step is no longer
    positive or no longer decreases g.  The rounding of f is ~2 eps gamma0
    and f' >= 1, so the returned root is the correctly rounded one or a
    float next to it.
    """
    # f(R) = R (1 - cos R) >= 0, so R is a start right of the root.  Deep
    # wells start 1e-12 below pi/2 instead; f < 0 there means the root lies
    # within 1e-12 of pi/2, R above g / cos(g) ~ 1.57e12: bad input.
    g = min(R, 0.5 * math.pi - 1e-12)
    if g - R * math.cos(g) < 0.0:
        raise DomainError(f"R must be <= {g / math.cos(g):.3g}, the deepest well, got {R!r}")
    for _ in range(_NEWTON_STEPS):
        step = (g - R * math.cos(g)) / (1.0 + R * math.sin(g))
        if not (step > 0.0 and g - step < g):
            return g
        g -= step
    raise NumericalError(f"Newton root for R = {R!r} did not settle in {_NEWTON_STEPS} steps")


def ground_state_from_R(R: float) -> GroundState:
    """Solve the quantisation conditions for a given well strength R."""
    # Comparisons, not math.isfinite: they refuse an int that no float holds.
    try:
        in_range = 0.0 < R <= sys.float_info.max
    except TypeError:  # text or None, which no number compares with
        in_range = False
    if not in_range:
        raise DomainError(f"R must be finite and positive, got {_shown(R)}")
    if R < GAMMA_MIN:
        raise DomainError(
            f"R must be >= GAMMA_MIN = {GAMMA_MIN!r}, got {R!r}; gamma0 < R, and "
            "the closed-form polarizability overflows below GAMMA_MIN"
        )
    gamma0 = _solve_gamma(R)
    return GroundState(gamma0, R * math.sin(gamma0), R)


def ground_state_from_gamma(gamma0: float) -> GroundState:
    """Build the ground state directly from the inside phase gamma0."""
    try:
        in_range = 0.0 < gamma0 <= GAMMA_MAX
    except TypeError:  # text or None, which no number compares with
        in_range = False
    if not in_range:
        raise DomainError(f"gamma0 must lie in (0, pi/2 - 1e-9], got {_shown(gamma0)}; "
                          "use the limits module to approach the infinite-well edge")
    beta0 = gamma0 * math.tan(gamma0)
    return GroundState(gamma0, beta0, math.hypot(gamma0, beta0))

