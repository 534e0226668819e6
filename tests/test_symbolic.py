"""phi' solves the response equations exactly, and the package's floats match it.

The proof is symbolic (``tests/symbolic.py``): both residuals expand to
exactly 0 with the homogeneous coefficients C and B left free.  The tie-in then
evaluates the same expressions with mpmath at exactly the floats that
``_phi_inner``, ``_phi_outer`` and ``phi_jump`` receive.
Outside the well the quadrature integrand is shown to be e^{-2t} times a
cubic in t, which the two-point Gauss-Laguerre rule integrates exactly.
The edge-matched (C, B) reduce to closed forms in beta0 and gamma0, and the
alpha' composed from them is the closed form that ``alpha_exact_prime``
sums.  The shallow-well series that ``_alpha2_brackets`` sums is derived
there too, and pinned as exact rationals.
"""

import math

import numpy as np
import pytest
import sympy as sp
from mpmath import mp, mpf

import symbolic
from wellpol import dalgarno_lewis
from wellpol.well_spectrum import GAMMA_MAX, ground_state_from_gamma

# gamma0 log-uniform from 1e-12 to GAMMA_MAX.
GAMMAS = [float(v) for v in np.geomspace(1e-12, GAMMA_MAX, 40)]


# Panels in t = beta0 (|x'| - 1) whose Gauss-Legendre nodes spread the
# outer sample points over [0, 40], beyond the rule's own two nodes.
PANEL_T = (0.0, 2.0, 6.0, 14.0, 40.0)


def nodes_and_t():
    """The inner nodes |x'| < 1 of both rules, and outer sample points in t.

    The outer points are t = 0 and 40, the Gauss-Laguerre nodes t = s/2,
    and both Gauss-Legendre rules' nodes on each panel of ``PANEL_T``.
    """
    xs, ts = [], [0.0, 40.0] + [0.5 * s for s, _ in dalgarno_lewis._LAGUERRE]
    for n in (dalgarno_lewis._RULE_POINTS, dalgarno_lewis._ESTIMATE_POINTS):
        # The whole rule: the tabulated nodes x' > 0 and their mirrors.
        nodes = [sign * x for x, _ in dalgarno_lewis._panel_nodes(n) for sign in (-1.0, 1.0)]
        xs += nodes
        for lo, hi in zip(PANEL_T, PANEL_T[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            ts += [mid + half * node for node in nodes]
    return xs, ts


class TestResiduals:
    def test_inner_residual_is_identically_zero(self):
        # For every gamma0, x' and C: the sin-wave C term is homogeneous.
        assert symbolic.residuals()[0] == 0

    def test_outer_residual_is_identically_zero(self):
        # For every gamma0, beta0, x' and B: B e^{-beta0 (x'-1)} is homogeneous.
        assert symbolic.residuals()[1] == 0

    def test_wrong_coefficient_leaves_a_residual(self):
        # Sensitivity probe: 1% on the x'^2 coefficient of the outer piece.
        x, g, b = symbolic.x, symbolic.g, symbolic.b
        env = sp.exp(-b * (x - 1))
        bad = sp.cos(g) * env * (sp.Rational(101, 100) * x * x / b + x / b**2)
        resid = sp.diff(bad, x, 2) - b**2 * bad + symbolic.OUTER_FORCING
        assert sp.expand(resid) != 0


class TestPhiTieIn:
    """The package's phi' pieces against the proven expressions, within 1e-14."""

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_inner_matches_symbolic(self, gamma):
        # The paper's C', the trial C' = 0 and the edge-matched
        # C = -(1 + 1/beta0)^2.  Worst measured 5.3e-15, at x' = 0.974 next
        # to the hard wall.
        state = ground_state_from_gamma(gamma)
        g = state.gamma0
        xs, _ = nodes_and_t()
        for c_prime in (dalgarno_lewis.default_c_prime(g), 0.0,
                        -((1.0 + 1.0 / state.beta0) ** 2)):
            worst = max(symbolic.phi_inner_error(g, c_prime, x) for x in xs)
            assert worst <= 1e-14, (c_prime, worst)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_outer_matches_symbolic(self, gamma):
        # x' = 1 + t/beta0 and env = e^{-t}, as the quadrature kernel
        # takes them; the left side is the exact negative.  Worst measured
        # 4.5e-16.
        state = ground_state_from_gamma(gamma)
        g, b = state.gamma0, state.beta0
        _, ts = nodes_and_t()
        for t in ts:
            x, env = 1.0 + t / b, math.exp(-t)
            assert symbolic.phi_outer_error(g, b, x, env) <= 1e-14, t
            assert dalgarno_lewis._phi_outer(g, b, -x, env) == -dalgarno_lewis._phi_outer(
                g, b, x, env
            )


class TestPhiJump:
    """``phi_jump`` against 40 digits at the same floats, to its stated accuracy."""

    # 0.9080463980363837 is the last float below the jump's sign change.
    GRID = GAMMAS + [float(v) for v in np.linspace(0.05, GAMMA_MAX, 80)] + [
        0.9080463980363837
    ]

    def test_error_is_bounded_by_its_terms(self):
        # Measured worst 2.5e-16 times the sum of the terms' magnitudes.
        for gamma in self.GRID:
            state = ground_state_from_gamma(gamma)
            got = dalgarno_lewis.phi_jump(dalgarno_lewis.phi_reduced(state))
            ref, scale = symbolic.phi_jump_ref(state.gamma0, state.beta0)
            assert abs(got - ref) <= 1e-15 * scale, gamma

    @pytest.mark.parametrize(
        "gamma",
        [0.4 * math.pi, 0.49 * math.pi, 0.5 * math.pi - 1e-3, 0.5 * math.pi - 1e-6, GAMMA_MAX],
    )
    def test_relative_error_next_to_hard_wall(self, gamma):
        # 1 + C' cancels.  Measured 1.4e-15 at 0.49 pi, 5.1e-13 at
        # pi/2 - 1e-3, 2.7e-10 at pi/2 - 1e-6 and 5.2e-7 at pi/2 - 1e-9.
        state = ground_state_from_gamma(gamma)
        got = dalgarno_lewis.phi_jump(dalgarno_lewis.phi_reduced(state))
        ref, _ = symbolic.phi_jump_ref(state.gamma0, state.beta0)
        assert float(abs((got - ref) / ref)) <= 1e-15 / (0.5 * math.pi - gamma)


class TestOuterRule:
    """The two-point Gauss-Laguerre rule integrates the outer piece exactly."""

    @pytest.mark.parametrize("k", [0, 1])
    def test_outer_integrand_is_a_cubic_in_t(self, k):
        # No exponential is left in e^{2t} psi0 x'^k phi'_out, for any B,
        # and its degree in t is k + 2 <= 3, which the rule's two nodes
        # integrate exactly.
        expr = symbolic.outer_integrand(k)
        assert not expr.has(sp.exp)
        assert symbolic.B in expr.free_symbols
        assert sp.Poly(expr, symbolic.t).degree() == k + 2

    def test_alpha1_is_the_outer_integral(self):
        # The closed form breakdown sums for alpha1', derived from the integral.
        n, g, b = symbolic.N, symbolic.g, symbolic.b
        r = sp.Rational
        bracket = 1 / b**2 + r(5, 2) / b**3 + r(5, 2) / b**4 + r(5, 4) / b**5
        assert sp.expand(symbolic.alpha1() - n**2 * sp.cos(g) ** 2 * bracket) == 0

    def test_outer_piece_matches_60_digit_alpha1(self):
        # The outer piece of alpha_via_quadrature at the state's own floats.
        # Measured worst 7.0e-16.
        gammas = [float(v) for v in np.geomspace(1e-20, 1.0, 60)] + [
            float(v) for v in np.linspace(1.0, GAMMA_MAX, 40)
        ] + [0.5 * math.pi - 10.0**-e for e in range(3, 9)]
        assert gammas[0] == 1e-20 and gammas[-7] == GAMMA_MAX
        worst = 0.0
        for gamma in gammas:
            state = ground_state_from_gamma(gamma)
            n_prime, outer, _ = dalgarno_lewis._quadrature(state, ())
            outer = n_prime * outer
            ref = symbolic.alpha1_ref(state.gamma0, state.beta0, state.n_prime_sq)
            worst = max(worst, float(abs((outer - ref) / ref)))
        assert worst <= 2e-15, worst


class TestEdgeMatch:
    """The edge-matched (C, B) and alpha' in closed form, at ``EDGE_DPS`` digits."""

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_coefficients_match_symbolic_solve(self, gamma):
        # With beta0 = gamma0 tan(gamma0) the solve reduces to
        # C = -(1 + 1/beta0)^2 and B = (1 + beta0)(sin g/g - cos g)/beta0^2.
        # B's terms cancel on shallow wells on both sides, about
        # 2 |log10 gamma0| digits.  Worst measured: C 3.1e-61, B 8.2e-38.
        with mp.workdps(symbolic.EDGE_DPS):
            g = mpf(gamma)
            s, c = mp.sin(g), mp.cos(g)
            b = g * s / c
            c_ref, b_ref = symbolic.edge_match_ref(g, b)
            assert abs(c_ref / -((1 + 1 / b) ** 2) - 1) <= 1e-58
            assert abs(b_ref / ((1 + b) * (s / g - c) / b**2) - 1) <= 1e-35

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_composed_alpha_is_the_closed_form(self, gamma):
        # N'^2 times the bracket plus the outer tail, both at the solved
        # (C, B), against the expression alpha_exact_prime sums.  Worst
        # measured 7.8e-61.
        with mp.workdps(symbolic.EDGE_DPS):
            composed = symbolic.alpha_exact_composed_ref(gamma)
            assert abs(composed / symbolic.alpha_exact_closed_ref(gamma) - 1) <= 1e-58


# Both sides of the series crossover: log-spaced below it up to its last
# float, linear from it to 1.5 rad for the closed in-well bracket.
ALPHA2_CROSSOVER = dalgarno_lewis._ALPHA2_SERIES_BELOW
BELOW_ALPHA2 = [float(v) for v in np.geomspace(1e-12, ALPHA2_CROSSOVER, 40)[:-1]] + [
    math.nextafter(ALPHA2_CROSSOVER, 0.0)
]
ABOVE_ALPHA2 = [float(v) for v in np.linspace(ALPHA2_CROSSOVER, 1.5, 40)]
C_PRIMES = {"trial": lambda g: 0.0, "hard_wall": lambda g: -1.0,
            "paper": dalgarno_lewis.default_c_prime}


class TestSeries:
    def test_alpha2_bracket_series_coefficients(self):
        # 2 int_0^1 cos(g x') x' phi'_in dx' to O(g^8), affine in C.
        g, c = symbolic.g, symbolic.C
        r = sp.Rational
        expected = (
            -r(2, 3) / g**2 + r(2, 21) * g**2 - r(8, 405) * g**4 + r(2, 1155) * g**6
            + c * (-r(2, 3) + r(4, 15) * g**2 - r(4, 105) * g**4 + r(8, 2835) * g**6)
        )
        assert sp.expand(symbolic.alpha2_bracket_series() - expected) == 0

    @pytest.mark.parametrize("gamma", [0.01, 0.3, 1.1])
    def test_alpha2_bracket_is_the_integral(self, gamma):
        # The bracket summed from the moments against mpmath's quadrature of
        # its defining integral, at the same 40 digits.
        with mp.workdps(symbolic.DPS):
            g = mpf(gamma)
            for c_prime in (0.0, -2.5):
                ref = 2 * mp.quad(lambda x: mp.cos(g * x) * x * symbolic.phi_inner_ref(
                    gamma, c_prime, x), [0, 1])
                got = symbolic.alpha2_bracket_ref(gamma, c_prime)
                assert abs(got / ref - 1) <= 1e-30, c_prime

    @pytest.mark.parametrize("c_name", list(C_PRIMES))
    def test_alpha2_series_branch_matches_truncated_series(self, c_name):
        # Measured worst 3.3e-16.
        for gamma in BELOW_ALPHA2:
            c_prime = C_PRIMES[c_name](gamma)
            ref = symbolic.alpha2_bracket_series_ref(gamma, c_prime)
            got = dalgarno_lewis._alpha2_brackets(gamma, c_prime)[0]
            assert float(abs((got - ref) / ref)) <= 1e-15, gamma

    @pytest.mark.parametrize("c_name", list(C_PRIMES))
    def test_alpha2_closed_branch_matches_integral(self, c_name):
        # The seven closed terms cancel most just above the crossover;
        # measured worst 6.9e-14.
        for gamma in ABOVE_ALPHA2:
            c_prime = C_PRIMES[c_name](gamma)
            ref = symbolic.alpha2_bracket_ref(gamma, c_prime)
            got = dalgarno_lewis._alpha2_brackets(gamma, c_prime)[0]
            assert float(abs((got - ref) / ref)) <= 1e-13, gamma
