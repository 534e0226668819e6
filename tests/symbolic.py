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
x' = 1, are derived once per session.  Evaluators lambdified for mpmath
give the reference values of the package's floats.
"""

import functools

import sympy as sp
from mpmath import mp, mpf

from wellpol.dalgarno_lewis import _phi_inner, _phi_outer

x, g, b, C, B, E = sp.symbols("x gamma0 beta0 C B E", real=True)

DPS = 40
# The solved B is a sum whose terms cancel on shallow wells, losing about
# 2 |log10 gamma0| digits (24 at gamma0 = 1e-12), so (C, B) get more.
EDGE_DPS = 60

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


@functools.cache
def _evaluators():
    inner = sp.lambdify((g, C, x), phi_inner(), "mpmath")
    outer = sp.lambdify((g, b, x, E), phi_outer(E).subs(B, 0), "mpmath")
    c_coef, b_coef = edge_match()
    return inner, outer, sp.lambdify((g, b), [c_coef, b_coef], "mpmath")


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


def phi_inner_error(gamma0: float, c_prime: float, x_over_a: float) -> float:
    """Relative error of ``_phi_inner`` against phi'_in, at the same floats."""
    ref = phi_inner_ref(gamma0, c_prime, x_over_a)
    return float(abs((_phi_inner(gamma0, c_prime, x_over_a) - ref) / ref))


def phi_outer_error(gamma0: float, beta0: float, x_over_a: float, env: float) -> float:
    """Relative error of ``_phi_outer`` against phi'_out (B = 0), x' > 1."""
    ref = phi_outer_ref(gamma0, beta0, x_over_a, env)
    return float(abs((_phi_outer(gamma0, beta0, x_over_a, env) - ref) / ref))
