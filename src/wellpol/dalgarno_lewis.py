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
Gauss-Legendre panels written in ``math``, so this module, like every
closed form here, needs neither numpy nor scipy.  One kernel sums both
integrands panel by panel, with the outer panels mapped in
t = beta0 (|x'| - 1).  The state-independent node data (t, e^{-t}, the
weights and panel half-widths) are tabulated once per rule size on first
use, and each panel is summed in one pass with phi' written out in place
and its per-state constants hoisted.  The alpha' integrand is even, so
each left outer panel is its right mirror counted twice and the inner
nodes x' < 0 are their mirrors x' > 0 at doubled weight; the odd overlap
integrand is evaluated on both sides, so its parity check sees each.
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
    if g < _EDGE_SERIES_BELOW:
        # sum_{k>=1} (-1)^k 2k g^(2k) / (2k+1)!; the next term is O(g^12).
        g2 = g * g
        c_minus_sinc = -g2 * (1.0 / 3.0 - g2 * (1.0 / 30.0 - g2 * (
            1.0 / 840.0 - g2 * (1.0 / 45360.0 - g2 / 3991680.0))))
    else:
        c_minus_sinc = c - s / g
    return r1 * (1.0 + b) / det, r1 * c_minus_sinc / det


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
# quadrature cross-checks.  The integrands are smooth on each piece, so a
# fixed rule on fixed panels suffices: the 16-point rule gives the value and
# the 10-point rule on the same panels the error estimate.
_RULE_POINTS = 16
_ESTIMATE_POINTS = 10
# Outer panel edges in t = beta0 (|x'| - 1).  The integrands fall like
# e^{-2t}, so the tail cut at t = 40 is ~e^{-80} ~ 1.8e-35 of the peak.
_OUTER_PANEL_T = (0.0, 2.0, 6.0, 14.0, 40.0)


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
    """State-independent node tables of the n-point rule, built once per n.

    Returns the outer panels, each as (half, ((w, t, e^{-t}), ...)) with
    half the panel's half-width in t = beta0 (|x'| - 1), the inner rule as
    ((x', w), ...) on [-1, 1], and its nodes x' > 0 with doubled weights,
    ((x', 2 w), ...), on which an even integrand is summed once per mirror
    pair.
    """
    nodes, weights = _gauss_legendre(n)
    outer = []
    for lo, hi in zip(_OUTER_PANEL_T, _OUTER_PANEL_T[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        ts = [mid + half * node for node in nodes]
        outer.append((half, tuple(zip(weights, ts, [math.exp(-t) for t in ts]))))
    inner = tuple(zip(nodes, weights))
    return tuple(outer), inner, tuple((x, 2.0 * w) for x, w in inner if x > 0.0)


def _outer_panel(
    nodes, k: int, side: float, n_cos: float, cos_g: float, b: float, b2: float
) -> float:
    """fsum of w psi0 x'^k phi' over one outer panel's (w, t, e^{-t}) nodes.

    x' = side (1 + t/b), psi0 = n_cos e^{-t} and phi' is ``_phi_outer``
    written out with cos(gamma0) = cos_g and beta0^2 = b2 hoisted; the
    (side cos_g) factor gives phi' its sign as copysign does there.  The
    k = 1 integrand is even, so it is taken on the right side only.
    """
    if k:
        return math.fsum(
            [
                w * ((n_cos * e * x) * (cos_g * e * (x * x / b + x / b2)))
                for w, t, e in nodes
                for x in (1.0 + t / b,)
            ]
        )
    side_cos = side * cos_g
    return math.fsum(
        [
            w * ((n_cos * e) * (side_cos * e * (x * x / b + x / b2)))
            for w, t, e in nodes
            for x in (1.0 + t / b,)
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
    if k:
        return math.fsum(
            [
                w * ((n_prime * c * x) * -(x * x * s / g + x * c / g2 + c_prime * s / g))
                for x, w in nodes
                for s, c in ((sin(g * x), cos(g * x)),)
            ]
        )
    return math.fsum(
        [
            w * ((n_prime * c) * -(x * x * s / g + x * c / g2 + c_prime * s / g))
            for x, w in nodes
            for s, c in ((sin(g * x), cos(g * x)),)
        ]
    )


def _panel_sums(state: GroundState, k: int, n: int) -> list[float]:
    """Integral of psi0 x'^k phi' over each panel, by the n-point rule.

    The k = 1 panels sum to alpha' / N', the k = 0 panels to <psi0|phi'>.
    The last entry is the inner panel, the others the outer panels.
    The nodes come from ``_panel_nodes``, so t, e^{-t} and the panel
    half-widths are computed once per rule, and the per-state constants
    are computed once per call; ``_outer_panel`` and ``_inner_panel`` then
    sum each panel in one pass over its nodes, phi' written out in place
    with the same floating-point operations as ``_phi_outer`` and
    ``_phi_inner``.  The outer panels are mapped in t = beta0 (|x'| - 1),
    and the envelope e^{-t} is taken at the t-node.  A left outer node is
    the exact negative of its right mirror, so for the even k = 1
    integrand a left panel's sum equals its mirror's bit for bit: it is
    computed once and listed twice.  Likewise the inner nodes come in
    exact +-pairs with equal weights, so the k = 1 inner sum takes the
    positive nodes with doubled weights, bit for bit the sum over all.
    The odd k = 0 integrand is evaluated on both sides, so the parity
    check sees each.
    """
    g, b = state.gamma0, state.beta0
    n_prime = math.sqrt(state.n_prime_sq)
    outer, inner, inner_right = _panel_nodes(n)
    cos_g = math.cos(g)
    n_cos, b2 = n_prime * cos_g, b**2
    sums: list[float] = []
    for half, nodes in outer:
        if k:
            total = half / b * _outer_panel(nodes, 1, 1.0, n_cos, cos_g, b, b2)
            sums += [total, total]
        else:
            sums += [
                half / b * _outer_panel(nodes, 0, side, n_cos, cos_g, b, b2)
                for side in (-1.0, 1.0)
            ]
    nodes = inner_right if k else inner
    sums.append(_inner_panel(nodes, k, n_prime, g, g**2, default_c_prime(g)))
    return sums


def alpha_via_quadrature(state: GroundState) -> float:
    """Polarizability from direct integration of <psi0| x |phi>.

    Independent numerical route to alpha'; agrees with the closed forms to
    better than 1e-8 relative.  Raises NumericalError when the 16- and 10-point rules
    differ by more than 1e-8 of the total.  The outer panels are mapped in
    t = beta0 (|x'| - 1), so near the hard wall, where they span only
    ~40/beta0 in x', the nodes do not lose digits to a rounded x'.  Their
    t-nodes and e^{-t} come from a table built once per rule size.  The
    integrand is even, so each left outer panel is counted as twice its
    right mirror, and each negative inner node as its positive mirror.
    """
    high = _panel_sums(state, 1, _RULE_POINTS)
    low = _panel_sums(state, 1, _ESTIMATE_POINTS)
    total = state.n_prime * math.fsum(high)
    err = state.n_prime * math.fsum(abs(h - lo) for h, lo in zip(high, low))
    if err > 1e-8 * max(abs(total), 1e-3):
        raise NumericalError(
            f"quadrature did not converge: value {total!r}, error estimate {err!r}, "
            f"gamma0 {state.gamma0!r}"
        )
    return total


def orthogonality(state: GroundState) -> float:
    """Overlap <psi0|phi'> by quadrature; vanishes by parity (psi0 even, phi' odd)."""
    return math.fsum(_panel_sums(state, 0, _RULE_POINTS))
