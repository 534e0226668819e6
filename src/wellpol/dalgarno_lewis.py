"""Closed-form static polarizability of the finite-well ground state.

The second-order Stark shift of the ground state is obtained from the
solution phi of an inhomogeneous differential equation driven by the dipole
interaction, so no excited or continuum states are needed.  With the field
along x the shift splits into a classically-forbidden-region part and an
inside-the-well part, giving (in units of g = m q^2 a^4 / hbar^2)

    alpha1' = N'^2 cos^2(g0) [1/b0^2 + 5/(2 b0^3) + 5/(2 b0^4) + 5/(4 b0^5)]
    alpha2' = N'^2 [-1/(3 g0^2) + f1(g0) cos(2 g0) + f2(g0) sin(2 g0)]

with g0 = gamma0, b0 = beta0, and f1, f2 rational-trigonometric
coefficients that carry the homogeneous-correction constant C'.  The
correction sin-wave added inside the well is fixed by matching the
hard-wall limit, C' = -(pi/2)^2 / gamma0^2; the trial value alpha2_t'
corresponds to C' = 0.  On shallow wells the alpha2' bracket's terms cancel
from ~gamma0^-5 down to ~gamma0^-2, so below gamma0 = 0.06 it is summed
from its Taylor series instead.

The module offers two closed forms for the total.  ``breakdown(state)
.alpha_prime`` is the paper's printed heuristic: its C' is the hard-wall
calibration above and its outer piece carries no homogeneous term, so its
phi' jumps at the edge (``phi_jump``) and it is pinned to the published
tables, not to the true polarizability.  ``alpha_exact_prime`` adds the
homogeneous terms inside and outside and fixes both by continuity of phi'
and dphi'/dx' at |x'| = 1; it is the exact polarizability of the finite
well and agrees with the grid oracle to its grid accuracy.  The heuristic
undershoots it by ~12% at gamma0 = 0.39 pi, shrinking to ~0.01% at 0.49 pi.
Both pieces of phi' solve their response equations for any homogeneous
coefficients, so the two closed forms differ only in those coefficients.

All phi evaluations here are in the reduced convention

    phi = (m q eps a^3 N / (2 hbar^2)) * phi'(x/a),

so the applied field eps never appears numerically.  ``alpha_via_quadrature``
integrates <psi0| x |phi> directly as an independent route to the same
number, and ``orthogonality`` checks <psi0|phi> = 0.  Both use fixed
Gauss rules written in ``math``, so this module, like every closed form
here, needs neither numpy nor scipy.  Outside the well the integrands are
e^{-2t} times a cubic in t = beta0 (|x'| - 1), which a two-point
Gauss-Laguerre rule integrates exactly; inside, a Gauss-Legendre rule
tabulated once per size gives the value and an error estimate.  Each
piece is summed in one pass with phi' written out in place and its
per-state constants hoisted.  The alpha' integrand is even, so the left
outer side is its right mirror counted twice and the inner nodes x' < 0
are their mirrors x' > 0 at doubled weight; the odd overlap integrand is
evaluated on both sides, so its parity check sees each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, NumericalError
from .well_spectrum import GroundState

__all__ = [
    "HARD_WALL_ALPHA_COEFF",
    "PhiReduced",
    "PolarizabilityBreakdown",
    "default_c_prime",
    "phi_reduced",
    "phi_jump",
    "alpha1_prime",
    "alpha2_prime",
    "alpha2_t_prime",
    "alpha_exact_prime",
    "alpha2_prime_hard_wall",
    "alpha_apr_prime",
    "breakdown",
    "alpha_via_quadrature",
    "orthogonality",
]

_QUARTER_PI_SQ = (0.5 * math.pi) ** 2

# Published hard-wall polarizability coefficient used by the wider-well
# approximation alpha_apr' = coeff * (1 + 1/R)^4.
HARD_WALL_ALPHA_COEFF = 0.0702247


def default_c_prime(gamma0: float) -> float:
    """Homogeneous-correction coefficient C' = -(pi/2)^2 / gamma0^2."""
    return -_QUARTER_PI_SQ / gamma0**2


@dataclass(frozen=True)
class PhiReduced:
    """Piecewise reduced dipole-response function phi'(x')."""

    state: GroundState
    c_coefficient: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.c_coefficient) or self.c_coefficient > 0.0:
            raise DomainError(
                f"c_coefficient must be finite and <= 0, got {self.c_coefficient!r}"
            )


def phi_reduced(state: GroundState) -> PhiReduced:
    """Build the paper's phi' for a state, with the default C'."""
    return PhiReduced(state=state, c_coefficient=default_c_prime(state.gamma0))


def _phi_inner(gamma0: float, c_prime: float, x: float) -> float:
    s = math.sin(gamma0 * x)
    c = math.cos(gamma0 * x)
    return -(x * x * s / gamma0 + x * c / gamma0**2 + c_prime * s / gamma0)


def _phi_outer(gamma0: float, beta0: float, x: float, env: float) -> float:
    # Outer form for |x| >= 1, odd in x: the left region mirrors the right.
    # The envelope env = e^{-beta0 (|x| - 1)} is an argument, so the
    # quadrature kernel's copy of this form can be checked against it with
    # e^{-t} taken at a node in t = beta0 (|x| - 1), not from a rounded x.
    ax = abs(x)
    return math.copysign(math.cos(gamma0) * env * (ax * ax / beta0 + ax / beta0**2), x)


def phi_jump(phi: PhiReduced) -> float:
    """Discontinuity phi'(1+) - phi'(1-) at the well edge.

    The piecewise phi' is built without imposing continuity at |x'| = 1;
    the jump is reported as a diagnostic only.

    Accuracy: the jump is a sum of five terms, cos(gamma0) (1/beta0 +
    1/beta0^2) + sin(gamma0)/gamma0 + cos(gamma0)/gamma0^2 +
    C' sin(gamma0)/gamma0, and its error is at most 1e-15 times the sum of
    their magnitudes.  They cancel in two places.  Next to the hard wall
    1 + C' -> 0, so the relative error grows as 1e-15 / (pi/2 - gamma0):
    1.4e-15 at 0.49 pi, 5.1e-13 at pi/2 - 1e-3 and 5.2e-7 at pi/2 - 1e-9
    (against 40 digits at the same floats).  At gamma0 = 0.289 pi the jump
    changes sign, so no relative bound holds near there.
    """
    st = phi.state
    return _phi_outer(st.gamma0, st.beta0, 1.0, 1.0) - _phi_inner(
        st.gamma0, phi.c_coefficient, 1.0
    )


def alpha1_prime(state: GroundState) -> float:
    """Forbidden-region polarizability contribution, in units of g."""
    b = state.beta0
    bracket = math.fsum(
        [1.0 / b**2, 5.0 / (2.0 * b**3), 5.0 / (2.0 * b**4), 5.0 / (4.0 * b**5)]
    )
    return state.n_prime_sq * math.cos(state.gamma0) ** 2 * bracket


# Below this gamma0 the in-well bracket is summed from its Taylor series:
# the seven closed-form terms run from ~gamma0^-5 to ~gamma0^-2 and cancel,
# losing ~1e-12 at gamma0 = 1e-2 and every digit below ~1e-8.  Against
# 80-digit mpmath on gamma0 in [0.02, 0.1] this crossover gives the smallest
# worst relative error of the two forms, 1.7e-13 at the default C'.
_ALPHA2_SERIES_BELOW = 0.06


def _alpha2_bracket(gamma0: float, c_prime: float) -> float:
    g = gamma0
    if g < _ALPHA2_SERIES_BELOW:
        # Affine in C'; the next terms are O(gamma0^8) and O(C' gamma0^8).
        g2 = g * g
        return (
            -2.0 / (3.0 * g2)
            + g2 * (2.0 / 21.0 + g2 * (-8.0 / 405.0 + g2 * 2.0 / 1155.0))
            + c_prime * (-2.0 / 3.0 + g2 * (4.0 / 15.0 + g2 * (-4.0 / 105.0 + g2 * 8.0 / 2835.0)))
        )
    # Compensated summation: near gamma0 = pi/2 the cos(2 gamma0) terms
    # nearly cancel and six-decimal table reproduction needs the headroom.
    c2g = math.cos(2.0 * g)
    s2g = math.sin(2.0 * g)
    return math.fsum(
        [
            -1.0 / (3.0 * g**2),
            c2g / (2.0 * g**2),
            -5.0 * c2g / (4.0 * g**4),
            c_prime * c2g / (2.0 * g**2),
            -5.0 * s2g / (4.0 * g**3),
            5.0 * s2g / (8.0 * g**5),
            -c_prime * s2g / (4.0 * g**3),
        ]
    )


def alpha2_prime(state: GroundState, c_prime: float | None = None) -> float:
    """In-well polarizability contribution, in units of g.

    ``c_prime`` overrides the homogeneous-correction coefficient; the
    default is C' = -(pi/2)^2 / gamma0^2.
    """
    if c_prime is None:
        c_prime = default_c_prime(state.gamma0)
    return state.n_prime_sq * _alpha2_bracket(state.gamma0, c_prime)


def alpha2_t_prime(state: GroundState) -> float:
    """In-well contribution of the bare trial solution (C' = 0)."""
    return alpha2_prime(state, c_prime=0.0)


# Below this gamma0 the factor cos(gamma0) - sin(gamma0)/gamma0 ~ -gamma0^2/3
# of the edge-match B is summed from its series, since its two terms cancel.
# Against 50-digit mpmath on gamma0 in [0.02, 0.6] a crossover anywhere in
# [0.225, 0.25] gives the smallest worst error of the two forms, 7.6e-15
# (the closed form just above it); the series keeps 1.9e-15 below it.
_EDGE_SERIES_BELOW = 0.225


def _cos_minus_sinc(g: float) -> float:
    """cos(g) - sin(g)/g, from its series below ``_EDGE_SERIES_BELOW``."""
    if g < _EDGE_SERIES_BELOW:
        # sum_{k>=1} (-1)^k 2k g^(2k) / (2k+1)!; the next term is O(g^12).
        g2 = g * g
        return -g2 * (1.0 / 3.0 - g2 * (1.0 / 30.0 - g2 * (
            1.0 / 840.0 - g2 * (1.0 / 45360.0 - g2 / 3991680.0))))
    return math.cos(g) - math.sin(g) / g


def _edge_match(state: GroundState) -> tuple[float, float]:
    """Coefficients (C, B) that make phi' and dphi'/dx' continuous at x' = 1.

    C multiplies the in-well homogeneous term -sin(gamma0 x')/gamma0 (the
    slot of ``_phi_inner``'s c_prime) and B the outer homogeneous term
    sign(x') e^{-beta0(|x'|-1)}.  Matching value and slope at the edge is a
    2x2 linear system; its determinant -(beta0 sin/gamma0 + cos) never
    vanishes on (0, pi/2).
    """
    g, b = state.gamma0, state.beta0
    s, c = math.sin(g), math.cos(g)
    # With the particular parts p = _phi_inner(g, 0, x) and
    # u = _phi_outer(g, b, x, env) at x' = 1, matching gives
    # -(s/g) C - B = u - p = r1 and -c C + b B = u' - p' = r2.  As
    # u - u' = p - p' = cos(gamma0), r2 = r1 exactly, and Cramer's rule
    # reduces to C = r1 (1 + b) / det and B = r1 (c - s/g) / det.  B's full
    # numerator -(s/g) r2 + c r1 cancels: below gamma0 ~ 1e-8 no digit is left.
    r1 = c * (1.0 / b + 1.0 / b**2) + s / g + c / g**2
    det = -(b * s / g + c)
    return r1 * (1.0 + b) / det, r1 * _cos_minus_sinc(g) / det


def alpha_exact_prime(state: GroundState) -> float:
    """Polarizability of the edge-matched Dalgarno-Lewis solution, in units of g.

    Unlike ``breakdown(state).alpha_prime``, whose C' is the paper's
    hard-wall calibration and whose phi' jumps at the edge (``phi_jump``),
    this adds homogeneous terms inside and outside the well and fixes both
    coefficients by continuity of phi' and dphi'/dx' at |x'| = 1, so phi'
    solves the response equation on the whole line.  alpha' is affine in
    those coefficients, so the value stays closed-form: alpha1' plus
    alpha2' at the matched C, plus the outer homogeneous term's overlap
    2 N'^2 B cos(gamma0) [1/(2 beta0) + 1/(4 beta0^2)].
    """
    c_coef, b_coef = _edge_match(state)
    b = state.beta0
    outer_homogeneous = (
        2.0
        * state.n_prime_sq
        * b_coef
        * math.cos(state.gamma0)
        * (1.0 / (2.0 * b) + 1.0 / (4.0 * b**2))
    )
    return alpha1_prime(state) + alpha2_prime(state, c_prime=c_coef) + outer_homogeneous


def alpha2_prime_hard_wall(c_prime: float = -1.0) -> float:
    """Hard-wall (gamma0 -> pi/2) limit of alpha2' as a function of C'.

    Affine in C'; C' = -1 gives the exact box polarizability
    20/pi^4 - 4/(3 pi^2), and C' = 0 gives the trial-solution limit.
    """
    pi_sq = math.pi**2
    return math.fsum(
        [
            -4.0 / (3.0 * pi_sq),
            -2.0 / pi_sq,
            20.0 / pi_sq**2,
            -2.0 * c_prime / pi_sq,
        ]
    )


def alpha_apr_prime(R: float) -> float:
    """Wider-hard-wall approximation: 0.0702247 (1 + 1/R)^4."""
    if not (math.isfinite(R) and R > 0.0):
        raise DomainError(f"R must be finite and positive, got {R!r}")
    return HARD_WALL_ALPHA_COEFF * (1.0 + 1.0 / R) ** 4


@dataclass(frozen=True)
class PolarizabilityBreakdown:
    """All reduced polarizabilities of one well, in units of g."""

    alpha1_prime: float
    alpha2_prime: float
    alpha2_t_prime: float
    alpha_prime: float
    alpha_apr_prime: float
    t_ratio: float

    def __post_init__(self) -> None:
        if self.alpha1_prime < 0.0:
            raise NumericalError("alpha1' must be nonnegative")
        if self.alpha_prime != self.alpha1_prime + self.alpha2_prime:
            raise NumericalError("alpha' must equal alpha1' + alpha2' exactly")


def breakdown(state: GroundState) -> PolarizabilityBreakdown:
    """Assemble every closed-form polarizability for one state."""
    a1 = alpha1_prime(state)
    a2 = alpha2_prime(state)
    a2t = alpha2_t_prime(state)
    return PolarizabilityBreakdown(
        alpha1_prime=a1,
        alpha2_prime=a2,
        alpha2_t_prime=a2t,
        alpha_prime=a1 + a2,
        alpha_apr_prime=alpha_apr_prime(state.R),
        t_ratio=(a2 - a2t) / a2 if a2 != 0.0 else math.nan,
    )


# Gauss-Legendre rules (Golub & Welsch, Math. Comp. 23, 221 (1969)) for the
# inner piece |x'| < 1 of the quadrature cross-checks.  Its integrand is
# smooth, so a fixed rule suffices: the 16-point rule gives the value and
# the 10-point rule the error estimate.
_RULE_POINTS = 16
_ESTIMATE_POINTS = 10
# The two-point Gauss-Laguerre rule (s, w) for int_0^inf e^{-s} f(s) ds: its
# nodes are the roots 2 -+ sqrt(2) of L_2, and it is exact for f of degree
# <= 3.  Outside the well psi0 and phi' each carry e^{-t}, t = beta0 (|x'| - 1),
# so in s = 2t the integrand psi0 x'^k phi' is e^{-s} times a polynomial of
# degree k + 2 <= 3 and the rule integrates it exactly.
_LAGUERRE = (
    (2.0 - math.sqrt(2.0), (2.0 + math.sqrt(2.0)) / 4.0),
    (2.0 + math.sqrt(2.0), (2.0 - math.sqrt(2.0)) / 4.0),
)


@functools.cache
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n even.

    Newton iteration on P_n from cos(pi (i - 1/4) / (n + 1/2)); the nodes
    come in exact +-pairs, so an odd integrand sums to zero.
    """
    nodes: list[float] = []
    weights: list[float] = []
    for i in range(1, n // 2 + 1):
        x, dx = math.cos(math.pi * (i - 0.25) / (n + 0.5)), math.inf
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = n * (x * p - p_prev) / (x * x - 1.0)
            if abs(dx) <= 1e-15:
                break
            dx = p / dp
            x -= dx
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        nodes += [-x, x]
        weights += [w, w]
    return tuple(nodes), tuple(weights)


@functools.cache
def _panel_nodes(n: int):
    """The n-point inner rule, built once per n.

    Returns the rule as ((x', w), ...) on [-1, 1], and its nodes x' > 0
    with doubled weights, ((x', 2 w), ...), on which an even integrand is
    summed once per mirror pair.
    """
    inner = tuple(zip(*_gauss_legendre(n)))
    return inner, tuple((x, 2.0 * w) for x, w in inner if x > 0.0)


def _outer_panel(k: int, side: float, n_cos: float, cos_g: float, b: float, b2: float) -> float:
    """fsum of w e^{2t} psi0 x'^k phi' over the ``_LAGUERRE`` nodes s = 2t.

    x' = side (1 + t/b).  e^{t} psi0 = n_cos, and e^{t} phi' is
    ``_phi_outer`` at env = 1, written out with cos(gamma0) = cos_g and
    beta0^2 = b2 hoisted; the (side cos_g) factor gives phi' its sign as
    copysign does there.  The k = 1 integrand is even, so it is taken on
    the right side only, where x'^k phi' needs no sign.
    """
    side_cos = side * cos_g
    return math.fsum(
        [
            w * ((n_cos * x if k else n_cos) * (side_cos * (x * x / b + x / b2)))
            for s, w in _LAGUERRE
            for x in (1.0 + 0.5 * s / b,)
        ]
    )


def _inner_panel(nodes, k: int, n_prime: float, g: float, g2: float, c_prime: float) -> float:
    """fsum of w psi0 x'^k phi' over (x', w) nodes of the inner rule.

    phi' is ``_phi_inner`` written out with gamma0^2 = g2 hoisted, and
    psi0 = n_prime cos(gamma0 |x'|) reuses its cos(gamma0 x'), cos being
    even.  The k = 1 integrand is even, so it is given the nodes x' > 0
    with doubled weights.
    """
    sin, cos = math.sin, math.cos
    return math.fsum(
        [
            w * ((n_prime * c * x if k else n_prime * c)
                 * -(x * x * s / g + x * c / g2 + c_prime * s / g))
            for x, w in nodes
            for s, c in ((sin(g * x), cos(g * x)),)
        ]
    )


def _outer_sums(state: GroundState, k: int) -> list[float]:
    """Integrals of psi0 x'^k phi' over x' < -1 and x' > 1, exactly.

    With dx' = ds / (2 beta0) each side is 1/(2 beta0) times the
    ``_LAGUERRE`` sum of ``_outer_panel``.  A left node is the exact
    negative of its right mirror, so for the even k = 1 integrand the left
    side's sum equals the right's bit for bit: it is computed once and
    listed twice.  The odd k = 0 integrand is evaluated on both sides, so
    the parity check sees each.
    """
    b = state.beta0
    cos_g = math.cos(state.gamma0)
    n_cos = math.sqrt(state.n_prime_sq) * cos_g
    sides = (1.0,) if k else (-1.0, 1.0)
    sums = [0.5 / b * _outer_panel(k, side, n_cos, cos_g, b, b**2) for side in sides]
    return 2 * sums if k else sums


def _inner_sum(state: GroundState, k: int, n: int) -> float:
    """Integral of psi0 x'^k phi' over |x'| < 1, by the n-point rule.

    The inner nodes come in exact +-pairs with equal weights, so the even
    k = 1 integrand takes the positive nodes with doubled weights, bit for
    bit the sum over all; the odd k = 0 integrand is evaluated on both.
    """
    g = state.gamma0
    inner, inner_right = _panel_nodes(n)
    nodes = inner_right if k else inner
    return _inner_panel(nodes, k, math.sqrt(state.n_prime_sq), g, g**2, default_c_prime(g))


def alpha_via_quadrature(state: GroundState) -> float:
    """Polarizability from direct integration of <psi0| x |phi>.

    Independent numerical route to alpha'; agrees with the closed forms to
    better than 1e-8 relative.  The outer piece is exact (``_LAGUERRE``),
    and the inner piece is the 16-point rule's; NumericalError is raised
    when the 16- and 10-point rules differ there by more than 1e-8 of the
    total.  The outer nodes are mapped in t = beta0 (|x'| - 1), so near
    the hard wall they do not lose digits to a rounded x'.
    """
    inner = _inner_sum(state, 1, _RULE_POINTS)
    total = state.n_prime * math.fsum([*_outer_sums(state, 1), inner])
    err = state.n_prime * abs(inner - _inner_sum(state, 1, _ESTIMATE_POINTS))
    if err > 1e-8 * max(abs(total), 1e-3):
        raise NumericalError(
            f"quadrature did not converge: value {total!r}, error estimate {err!r}, "
            f"gamma0 {state.gamma0!r}"
        )
    return total


def orthogonality(state: GroundState) -> float:
    """Overlap <psi0|phi'> by quadrature; vanishes by parity (psi0 even, phi' odd).

    The value is exactly 0.0: each node's term is the exact negative of its
    mirror's, so a nonzero value means phi' has lost its parity.
    """
    return math.fsum([*_outer_sums(state, 0), _inner_sum(state, 0, _RULE_POINTS)])
