"""The reduced response function phi' as exact sympy expressions.

Written term by term the way ``dalgarno_lewis._phi_inner`` and
``_phi_outer`` write it, with both homogeneous coefficients free:

    phi'_in(x')  = -(x'^2 sin(g x')/g + x' cos(g x')/g^2 + C sin(g x')/g)
    phi'_out(x') = cos(g) E (x'^2/b + x'/b^2) + B E,   E = e^{-b (x' - 1)}

for x' in the well and x' > 1, with g = gamma0 and b = beta0 (phi' is odd,
so x' < -1 mirrors x' > 1).  The residuals of the response equations

    (d^2/dx'^2 + g^2) phi'_in  + 4 x' cos(g x')
    (d^2/dx'^2 - b^2) phi'_out + 4 x' cos(g) E

and the edge-matched (C, B), the solution of the value-and-slope system at
x' = 1, are derived once per session.  So are the edge jump of the paper's
phi' (B = 0, C = -(pi/2)^2 / g^2), the outer integrand e^{2t} psi0 x'^k
phi'_out in t = b (x' - 1) with psi0 = N cos(g) E, the forbidden-region
alpha1' = 2 N int_1^oo psi0 x' phi'_out dx' (B = 0), the in-well bracket
2 int_0^1 cos(g x') x' phi'_in dx' (alpha2' / N'^2) and the Taylor series
of the bracket and of cos g - sin g / g that the package sums on shallow
wells.  Evaluators lambdified for mpmath give the reference values of the
package's floats.
"""

import functools

import sympy as sp
from mpmath import mp, mpf

from wellpol.dalgarno_lewis import _phi_inner, _phi_outer

x, g, b, C, B, E = sp.symbols("x gamma0 beta0 C B E", real=True)
t, N = sp.symbols("t N", positive=True)

DPS = 40
# The solved B is a sum whose terms cancel on shallow wells, losing about
# 2 |log10 gamma0| digits (24 at gamma0 = 1e-12), so (C, B) get more.
EDGE_DPS = 60
# alpha1' is a sum of positive terms; 60 digits put the reference's own
# rounding far below the few ulp it checks.
ALPHA1_DPS = 60

INNER_FORCING = 4 * x * sp.cos(g * x)
OUTER_FORCING = 4 * x * sp.cos(g) * sp.exp(-b * (x - 1))


def phi_inner():
    """phi'_in(x'; g, C)."""
    return -(x * x * sp.sin(g * x) / g + x * sp.cos(g * x) / g**2 + C * sp.sin(g * x) / g)


def phi_outer(envelope=sp.exp(-b * (x - 1))):
    """phi'_out(x'; g, b) + B E for x' > 1, E = ``envelope``."""
    return sp.cos(g) * envelope * (x * x / b + x / b**2) + B * envelope


@functools.cache
def residuals() -> tuple[sp.Expr, sp.Expr]:
    """Expanded residuals (inner, outer) of the response equations.

    Every term of a residual is a monomial in x', 1/g, 1/b, C, B times
    sin(g x'), cos(g x') or e^{-b (x' - 1)}, so expanding collects like
    terms and a residual that vanishes identically expands to exactly 0.
    """
    inner = sp.diff(phi_inner(), x, 2) + g**2 * phi_inner() + INNER_FORCING
    outer = sp.diff(phi_outer(), x, 2) - b**2 * phi_outer() + OUTER_FORCING
    return sp.expand(inner), sp.expand(outer)


@functools.cache
def edge_match() -> tuple[sp.Expr, sp.Expr]:
    """(C, B) that make phi' and dphi'/dx' continuous at x' = 1."""
    jump = phi_outer() - phi_inner()
    system = [jump.subs(x, 1), sp.diff(jump, x).subs(x, 1)]
    matrix, rhs = sp.linear_eq_to_matrix(system, [C, B])
    c_coef, b_coef = matrix.LUsolve(rhs)
    return c_coef, b_coef


def outer_integrand(k: int) -> sp.Expr:
    """e^{2t} psi0 x'^k phi'_out at x' = 1 + t/b, expanded, B free.

    psi0 = N cos(g) e^{-b (x' - 1)} is the ground state outside the well,
    so psi0 x'^k phi'_out is e^{-2t} times this.
    """
    psi0 = N * sp.cos(g) * sp.exp(-b * (x - 1))
    integrand = sp.exp(2 * t) * (psi0 * x**k * phi_outer()).subs(x, 1 + t / b)
    return sp.expand(sp.powsimp(sp.expand(integrand)))


@functools.cache
def alpha1() -> sp.Expr:
    """2 N int_1^oo psi0 x' phi'_out dx' at B = 0, with dx' = dt/b."""
    tail = sp.integrate(sp.exp(-2 * t) * outer_integrand(1).subs(B, 0), (t, 0, sp.oo))
    return 2 * N * tail / b


@functools.cache
def phi_jump() -> sp.Expr:
    """phi'(1+) - phi'(1-) at B = 0 and the paper's C' = -(pi/2)^2 / g^2, expanded."""
    inner = phi_inner().subs(C, -((sp.pi / 2) ** 2) / g**2)
    return sp.expand((phi_outer().subs(B, 0) - inner).subs(x, 1))


@functools.cache
def alpha2_bracket() -> sp.Expr:
    """2 int_0^1 cos(g x') x' phi'_in dx', affine in C."""
    return 2 * sp.integrate(sp.cos(g * x) * x * phi_inner(), (x, 0, 1))


@functools.cache
def alpha2_bracket_series() -> sp.Expr:
    """The bracket's Laurent series in g, truncated before O(g^8)."""
    return sp.expand(sp.series(alpha2_bracket(), g, 0, 8).removeO())


@functools.cache
def cos_minus_sinc_series() -> sp.Expr:
    """cos g - sin g / g, truncated before O(g^12)."""
    return sp.series(sp.cos(g) - sp.sin(g) / g, g, 0, 12).removeO()


@functools.cache
def _series_evaluators():
    return (
        sp.lambdify((g, C), alpha2_bracket(), "mpmath"),
        sp.lambdify((g, C), alpha2_bracket_series(), "mpmath"),
        sp.lambdify(g, cos_minus_sinc_series(), "mpmath"),
    )


@functools.cache
def _alpha1_evaluator():
    return sp.lambdify((g, b, N), alpha1(), "mpmath")


def alpha1_ref(gamma0: float, beta0: float, n_prime_sq: float) -> mpf:
    """alpha1' at ``ALPHA1_DPS`` digits, at exactly the given floats."""
    with mp.workdps(ALPHA1_DPS):
        return +_alpha1_evaluator()(mpf(gamma0), mpf(beta0), mp.sqrt(mpf(n_prime_sq)))


def alpha2_bracket_ref(gamma0: float, c_prime: float) -> mpf:
    """The bracket at ``DPS`` digits, at exactly the given floats."""
    with mp.workdps(DPS):
        return +_series_evaluators()[0](mpf(gamma0), mpf(c_prime))


def alpha2_bracket_series_ref(gamma0: float, c_prime: float) -> mpf:
    """The bracket's truncated series at ``DPS`` digits, at the given floats."""
    with mp.workdps(DPS):
        return +_series_evaluators()[1](mpf(gamma0), mpf(c_prime))


def cos_minus_sinc_series_ref(gamma0: float) -> mpf:
    """The truncated series of cos g - sin g / g at ``DPS`` digits."""
    with mp.workdps(DPS):
        return +_series_evaluators()[2](mpf(gamma0))


@functools.cache
def _evaluators():
    inner = sp.lambdify((g, C, x), phi_inner(), "mpmath")
    outer = sp.lambdify((g, b, x, E), phi_outer(E).subs(B, 0), "mpmath")
    c_coef, b_coef = edge_match()
    jump_terms = sp.Add.make_args(phi_jump())
    return (inner, outer, sp.lambdify((g, b), [c_coef, b_coef], "mpmath"),
            sp.lambdify((g, b), [sp.Add(*jump_terms), sp.Add(*map(sp.Abs, jump_terms))],
                        "mpmath"))


def phi_inner_ref(gamma0: float, c_prime: float, x_over_a: float) -> mpf:
    """phi'_in at ``DPS`` digits, at exactly the given floats."""
    with mp.workdps(DPS):
        return _evaluators()[0](mpf(gamma0), mpf(c_prime), mpf(x_over_a))


def phi_outer_ref(gamma0: float, beta0: float, x_over_a: float, env: float) -> mpf:
    """phi'_out (B = 0) at ``DPS`` digits for x' > 1, with E = env as given."""
    with mp.workdps(DPS):
        return _evaluators()[1](mpf(gamma0), mpf(beta0), mpf(x_over_a), mpf(env))


def edge_match_ref(gamma0: float, beta0: float) -> tuple[mpf, mpf]:
    """The edge-matched (C, B) at ``EDGE_DPS`` digits, at exactly the given floats."""
    with mp.workdps(EDGE_DPS):
        c_coef, b_coef = _evaluators()[2](mpf(gamma0), mpf(beta0))
        return +c_coef, +b_coef


def phi_jump_ref(gamma0: float, beta0: float) -> tuple[mpf, mpf]:
    """``phi_jump()`` and the sum of its terms' magnitudes, at ``DPS`` digits.

    Evaluated at exactly the given floats, with pi exact.
    """
    with mp.workdps(DPS):
        jump, scale = _evaluators()[3](mpf(gamma0), mpf(beta0))
        return +jump, +scale


def phi_inner_error(gamma0: float, c_prime: float, x_over_a: float) -> float:
    """Relative error of ``_phi_inner`` against phi'_in, at the same floats."""
    ref = phi_inner_ref(gamma0, c_prime, x_over_a)
    return float(abs((_phi_inner(gamma0, c_prime, x_over_a) - ref) / ref))


def phi_outer_error(gamma0: float, beta0: float, x_over_a: float, env: float) -> float:
    """Relative error of ``_phi_outer`` against phi'_out (B = 0), x' > 1."""
    ref = phi_outer_ref(gamma0, beta0, x_over_a, env)
    return float(abs((_phi_outer(gamma0, beta0, x_over_a, env) - ref) / ref))
