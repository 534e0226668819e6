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
from its Taylor series instead.  ``breakdown(state)``, the record type
built from the state alone, gives these pieces: it holds the state, alpha1',
alpha2', alpha2_t' and the wider-well alpha_apr' = 0.0702247 (1 + 1/R)^4.

The module offers two closed forms for the total.  ``breakdown(state)
.alpha_prime`` is the paper's printed heuristic: its C' is the hard-wall
calibration above and its outer piece carries no homogeneous term, so its
phi' jumps at the edge (``phi_jump``) and it is pinned to the published
tables, not to the true polarizability.  ``alpha_exact_prime`` adds the
homogeneous terms inside and outside and fixes both by continuity of phi'
and dphi'/dx' at |x'| = 1; it is the exact polarizability of the finite
well and agrees with the grid oracle to its grid accuracy.  The matched
in-well coefficient is C = -(1 + 1/beta0)^2, and with it the total is one
expression in gamma0, summed to within 2e-15 (see its docstring).  The
paper's C' meets C only at the hard wall: -6.93 against -12.01 at
0.19 pi.  The heuristic undershoots the exact alpha' by ~12% at
gamma0 = 0.39 pi, shrinking to ~0.01% at 0.49 pi.  Both pieces of phi'
solve their response equations for any homogeneous coefficients, so the
two closed forms differ only in those coefficients.

All phi evaluations here are in the reduced convention

    phi = (m q eps a^3 N / (2 hbar^2)) * phi'(x/a),

so the applied field eps never appears numerically.  phi' is fixed by the
state, its C' being ``default_c_prime(gamma0)``, so no record wraps it:
``phi_jump`` and the quadrature take the ``GroundState``.
``alpha_via_quadrature`` integrates <psi0| x |phi> directly as an
independent route to the same number.  It uses fixed Gauss rules written in
``math``, so this module, like every closed form here, needs neither numpy
nor scipy.  Outside the well the integrand is e^{-2t} times a cubic in
t = beta0 (|x'| - 1), which a two-point Gauss-Laguerre rule integrates
exactly; inside, a Gauss-Legendre rule tabulated once per size gives the
value and an error estimate.  Each call hands its state to ``_quadrature``,
which reads the state's fields and forms its constants once, and sums each
piece in one pass with phi' written out in place.  The integrand is even,
so the left outer side is its right mirror counted twice and the inner
nodes x' < 0 are their mirrors x' > 0 at doubled weight.  The overlap
<psi0|phi'> is not integrated: psi0 is even and phi' odd, so it vanishes
by parity.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError, NumericalError
from .well_spectrum import GAMMA_MIN, GroundState, _Record, _require_real

__all__ = [
    "PolarizabilityBreakdown",
    "default_c_prime",
    "phi_jump",
    "alpha_exact_prime",
    "alpha2_prime_hard_wall",
    "breakdown",
    "alpha_via_quadrature",
]

_QUARTER_PI_SQ = (0.5 * math.pi) ** 2

# Published hard-wall polarizability coefficient used by the wider-well
# approximation alpha_apr' = coeff * (1 + 1/R)^4.
_HARD_WALL_ALPHA_COEFF = 0.0702247


def default_c_prime(gamma0: float) -> float:
    """Homogeneous-correction coefficient C' = -(pi/2)^2 / gamma0^2.

    gamma0 is any real (``_require_real``) in [GAMMA_MIN, pi/2): a state's range.
    """
    gamma0 = gamma0 if type(gamma0) is float else _require_real("gamma0", gamma0)
    if GAMMA_MIN <= gamma0 < 0.5 * math.pi:
        return -_QUARTER_PI_SQ / gamma0**2
    raise DomainError(f"gamma0 must be a real number in [GAMMA_MIN, pi/2), got {gamma0!r}")


def phi_reduced(state: GroundState) -> GroundState:
    """The state itself: phi' is fixed by it, so ``phi_jump`` takes the state.

    Kept only for the benchmark's ``phi_jump(phi_reduced(state))``; it goes
    with ROADMAP item 4.
    """
    return state


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


def phi_jump(state: GroundState) -> float:
    """Discontinuity phi'(1+) - phi'(1-) at the well edge, C' = ``default_c_prime``.

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
    g = state.gamma0
    return _phi_outer(g, state.beta0, 1.0, 1.0) - _phi_inner(g, default_c_prime(g), 1.0)


# Below this gamma0 the in-well bracket is summed from its Taylor series:
# the seven closed-form terms run from ~gamma0^-5 to ~gamma0^-2 and cancel,
# losing ~1e-12 at gamma0 = 1e-2 and every digit below ~1e-8.  Against
# 80-digit mpmath on gamma0 in [0.02, 0.1] this crossover gives the smallest
# worst relative error of the two forms, 1.7e-13 at the default C'.
_ALPHA2_SERIES_BELOW = 0.06


def _alpha2_brackets(gamma0: float, c_prime: float) -> tuple[float, float]:
    """The in-well bracket at ``c_prime`` and at C' = 0, from one evaluation.

    The C' = 0 bracket drops the C' terms, which are +-0.0 there, so each
    is bit for bit the bracket evaluated at its own C' (fsum rounds exactly).
    """
    g = gamma0
    if g < _ALPHA2_SERIES_BELOW:
        # Affine in C'; the next terms are O(gamma0^8) and O(C' gamma0^8).
        g2 = g * g
        bare = -2.0 / (3.0 * g2) + g2 * (2.0 / 21.0 + g2 * (-8.0 / 405.0 + g2 * 2.0 / 1155.0))
        slope = -2.0 / 3.0 + g2 * (4.0 / 15.0 + g2 * (-4.0 / 105.0 + g2 * 8.0 / 2835.0))
        return bare + c_prime * slope, bare
    # Compensated summation: near gamma0 = pi/2 the cos(2 gamma0) terms
    # nearly cancel and six-decimal table reproduction needs the headroom.
    c2g = math.cos(2.0 * g)
    s2g = math.sin(2.0 * g)
    bare = [
        -1.0 / (3.0 * g**2),
        c2g / (2.0 * g**2),
        -5.0 * c2g / (4.0 * g**4),
        -5.0 * s2g / (4.0 * g**3),
        5.0 * s2g / (8.0 * g**5),
    ]
    return (
        math.fsum([*bare, c_prime * c2g / (2.0 * g**2), -c_prime * s2g / (4.0 * g**3)]),
        math.fsum(bare),
    )


def alpha_exact_prime(state: GroundState) -> float:
    """Polarizability of the edge-matched Dalgarno-Lewis solution, in units of g.

    Unlike ``breakdown(state).alpha_prime``, whose C' is the paper's
    hard-wall calibration and whose phi' jumps at the edge (``phi_jump``),
    this adds homogeneous terms inside and outside the well and fixes both
    coefficients by continuity of phi' and dphi'/dx' at |x'| = 1, so phi'
    solves the response equation on the whole line; the in-well coefficient
    is then C = -(1 + 1/beta0)^2.  With beta0 = gamma0 tan(gamma0),
    s = sin(gamma0) and c = cos(gamma0) the total collapses to

        alpha' = [15 c^5/s^4 - 9 c/s^2 + 24 c (1 - gamma0^2)
                  + 12 gamma0^2 c/s^2 + gamma0 (15 - 42 c^2 + 51 c^4)/s^3
                  - 4 gamma0^3 s] / (12 gamma0^4 (gamma0 s + c)).

    The leading term carries the shallow end, alpha' beta0^4 -> 5/4, and
    the hard wall gives 20/pi^4 - 4/(3 pi^2), so no branch is needed.
    Accuracy: within 2e-15 relative of the expression at 80 digits on
    [GAMMA_MIN, GAMMA_MAX].
    """
    g = state.gamma0
    s, c = math.sin(g), math.cos(g)
    g2, c2, s2 = g * g, c * c, s * s
    numerator = math.fsum(
        [15.0 * c2 * c2 * c / (s2 * s2), -9.0 * c / s2, 24.0 * c * (1.0 - g2),
         12.0 * g2 * c / s2, g * (15.0 - 42.0 * c2 + 51.0 * c2 * c2) / (s2 * s),
         -4.0 * g2 * g * s]
    )
    return numerator / (12.0 * g2 * g2 * (g * s + c))


def alpha2_prime_hard_wall(c_prime: float = -1.0) -> float:
    """Hard-wall (gamma0 -> pi/2) limit of alpha2' as a function of C'.

    Affine in C'; C' = -1 gives the exact box polarizability
    20/pi^4 - 4/(3 pi^2), and C' = 0 gives the trial-solution limit.
    DomainError: C' is not a finite real number.
    """
    c_prime = _require_real("c_prime", c_prime, finite=True)
    pi_sq = math.pi**2
    # C' times the rounded slope: -2 C' overflows for |C'| > ~9e307.
    return math.fsum(
        [
            -4.0 / (3.0 * pi_sq),
            -2.0 / pi_sq,
            20.0 / pi_sq**2,
            c_prime * (-2.0 / pi_sq),
        ]
    )


class PolarizabilityBreakdown(_Record):
    """Every closed-form polarizability of ``state``, its one input, in units of g.

    alpha1' is the forbidden-region piece and alpha_apr' the wider hard wall
    0.0702247 (1 + 1/R)^4.  One evaluation of the in-well bracket serves
    both alpha2' (the default C') and alpha2_t' (C' = 0); alpha' and T are
    derived from them.
    """

    __slots__ = ()
    _fields = ("state", "alpha1_prime", "alpha2_prime", "alpha2_t_prime", "alpha_apr_prime",
               "alpha_prime", "t_ratio")

    def __new__(cls, state: GroundState) -> "PolarizabilityBreakdown":
        g, b, n_sq = state.gamma0, state.beta0, state.n_prime_sq
        outer = math.fsum([1.0 / b**2, 5.0 / (2.0 * b**3), 5.0 / (2.0 * b**4), 5.0 / (4.0 * b**5)])
        bracket, bare = _alpha2_brackets(g, default_c_prime(g))
        a1, a2, a2t = n_sq * math.cos(g) ** 2 * outer, n_sq * bracket, n_sq * bare
        if a1 < 0.0:
            raise NumericalError("alpha1' must be nonnegative")
        apr = _HARD_WALL_ALPHA_COEFF * (1.0 + 1.0 / state.R) ** 4
        t_ratio = (a2 - a2t) / a2 if a2 != 0.0 else math.nan
        return tuple.__new__(cls, (state, a1, a2, a2t, apr, a1 + a2, t_ratio))


breakdown = PolarizabilityBreakdown


# Gauss-Legendre rules (Golub & Welsch, Math. Comp. 23, 221 (1969)) for the
# inner piece |x'| < 1 of the quadrature cross-check.  Its integrand is
# smooth, so a fixed rule suffices: the 16-point rule gives the value and
# the 10-point rule the error estimate.
_RULE_POINTS = 16
_ESTIMATE_POINTS = 10
# The two-point Gauss-Laguerre rule (s, w) for int_0^inf e^{-s} f(s) ds: its
# nodes are the roots 2 -+ sqrt(2) of L_2, and it is exact for f of degree
# <= 3.  Outside the well psi0 and phi' each carry e^{-t}, t = beta0 (|x'| - 1),
# so in s = 2t the integrand psi0 x' phi' is e^{-s} times a cubic and the
# rule integrates it exactly.
_LAGUERRE = (
    (2.0 - math.sqrt(2.0), (2.0 + math.sqrt(2.0)) / 4.0),
    (2.0 + math.sqrt(2.0), (2.0 - math.sqrt(2.0)) / 4.0),
)


@functools.cache
def _panel_nodes(n: int):
    """The nodes x' > 0 of the n-point Gauss-Legendre rule on [-1, 1] at doubled weights.

    n is even.  Newton iteration on P_n from cos(pi (i - 1/4) / (n + 1/2)),
    built once per n.  Returns ((x', 2 w), ...), w = 2 / ((1 - x'^2) P_n'(x')^2).
    The rule's nodes come in exact +-pairs with equal weights, so an even
    integrand summed here is bit for bit its sum over all n nodes.
    """
    nodes: list[tuple[float, float]] = []
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
        nodes.append((x, 4.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(nodes)


def _outer_panel(n_cos: float, cos_g: float, b: float, b2: float) -> float:
    """fsum of w e^{2t} psi0 x' phi' over the ``_LAGUERRE`` nodes s = 2t, x' = 1 + t/b.

    e^{t} psi0 = n_cos, and e^{t} phi' is ``_phi_outer`` at env = 1, written
    out with cos(gamma0) = cos_g and beta0^2 = b2 hoisted.  The integrand is
    even, so it is taken on the right side only.
    """
    return math.fsum(
        [
            w * (n_cos * x * (cos_g * (x * x / b + x / b2)))
            for s, w in _LAGUERRE
            for x in (1.0 + 0.5 * s / b,)
        ]
    )


def _inner_panel(nodes, n_prime: float, g: float, g2: float, c_prime: float) -> float:
    """fsum of w psi0 x' phi' over the (x', w) nodes of ``_panel_nodes``.

    phi' is ``_phi_inner`` written out with gamma0^2 = g2 hoisted, and
    psi0 = n_prime cos(gamma0 x') reuses its cos(gamma0 x').
    """
    sin, cos = math.sin, math.cos
    return math.fsum(
        [
            w * (n_prime * c * x * -(x * x * s / g + x * c / g2 + c_prime * s / g))
            for x, w in nodes
            for s, c in ((sin(g * x), cos(g * x)),)
        ]
    )


def _quadrature(state: GroundState, rules: tuple[int, ...]):
    """N' and the integrals of psi0 x' phi' outside and inside the well.

    Reads the state's fields and forms its constants once.  Returns N', the
    integral over |x'| > 1, exact, and one integral over |x'| < 1 per n-point
    inner rule in ``rules``.  With dx' = ds / (2 beta0) each outer side is
    1/(2 beta0) times ``_outer_panel``, the left one bit for bit the right's.
    """
    g, b = state.gamma0, state.beta0
    n_prime, cos_g, g2, b2 = math.sqrt(state.n_prime_sq), math.cos(g), g**2, b**2
    # C' is default_c_prime(g); every state's gamma0 is in its range.
    c_prime = -_QUARTER_PI_SQ / g2
    outer = (1.0 / b) * _outer_panel(n_prime * cos_g, cos_g, b, b2)
    inner = [_inner_panel(_panel_nodes(n), n_prime, g, g2, c_prime) for n in rules]
    return n_prime, outer, inner


def alpha_via_quadrature(state: GroundState) -> float:
    """Polarizability from direct integration of <psi0| x |phi>.

    Independent numerical route to alpha'; agrees with the closed forms to
    better than 1e-8 relative.  The outer piece is exact (``_LAGUERRE``),
    and the inner piece is the 16-point rule's; NumericalError is raised
    when the 16- and 10-point rules differ there by more than 1e-8 of the
    total.  The outer nodes are mapped in t = beta0 (|x'| - 1), so near
    the hard wall they do not lose digits to a rounded x'.
    """
    n_prime, outer, (inner, estimate) = _quadrature(state, (_RULE_POINTS, _ESTIMATE_POINTS))
    total = n_prime * math.fsum([outer, inner])
    err = n_prime * abs(inner - estimate)
    if err > 1e-8 * max(abs(total), 1e-3):
        raise NumericalError(
            f"quadrature did not converge: value {total!r}, error estimate {err!r}, "
            f"gamma0 {state.gamma0!r}"
        )
    return total


def orthogonality(state: GroundState) -> float:
    """0.0: the overlap <psi0|phi'> vanishes by parity, psi0 being even and phi' odd.

    Kept only for the benchmark's crosscheck operation; it goes with ROADMAP
    item 4.
    """
    return 0.0
