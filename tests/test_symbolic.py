"""phi' solves the response equations exactly, and the package's floats match it.

The proof is symbolic (``tests/symbolic.py``): both residuals expand to
exactly 0 with the homogeneous coefficients C and B left free.  The tie-in then
evaluates the same expressions with mpmath at exactly the floats that
``_phi_inner``, ``_phi_outer`` and ``_edge_match`` receive.  The shallow-well
series that ``_alpha2_bracket`` and ``_cos_minus_sinc`` sum are derived
there too, and pinned as exact rationals.
"""

import math

import numpy as np
import pytest
import sympy as sp

import symbolic
from wellpol import dalgarno_lewis
from wellpol.well_spectrum import GAMMA_MAX, ground_state_from_gamma

# gamma0 log-uniform from 1e-12 to GAMMA_MAX, and the floats around the
# crossover of _edge_match's series.
CROSSOVER = dalgarno_lewis._EDGE_SERIES_BELOW
GAMMAS = [float(v) for v in np.geomspace(1e-12, GAMMA_MAX, 40)] + [
    math.nextafter(CROSSOVER, 0.0),
    CROSSOVER,
    math.nextafter(CROSSOVER, 1.0),
]


def nodes_and_t():
    """The inner nodes |x'| < 1 and the outer t-nodes of both rules, t in [0, 40]."""
    xs, ts = [], [0.0, 40.0]
    for n in (dalgarno_lewis._RULE_POINTS, dalgarno_lewis._ESTIMATE_POINTS):
        outer, inner, _ = dalgarno_lewis._panel_nodes(n)
        xs += [x for x, _ in inner]
        ts += [t for _, nodes in outer for _, t, _ in nodes]
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
        # The paper's C', the trial C' = 0 and the edge-matched C.  Worst
        # measured 5.3e-15, at x' = 0.974 next to the hard wall.
        state = ground_state_from_gamma(gamma)
        g = state.gamma0
        xs, _ = nodes_and_t()
        for c_prime in (dalgarno_lewis.default_c_prime(g), 0.0,
                        dalgarno_lewis._edge_match(state)[0]):
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


class TestEdgeMatch:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_coefficients_match_symbolic_solve(self, gamma):
        # B's Cramer numerator -(s/g) r2 + c r1 cancels on shallow wells
        # (every digit lost below gamma0 ~ 1e-8); the reduced form with the
        # series for cos - sin/g holds it.  Worst measured: C 3.6e-16,
        # B 2.3e-15.
        state = ground_state_from_gamma(gamma)
        c_coef, b_coef = dalgarno_lewis._edge_match(state)
        c_ref, b_ref = symbolic.edge_match_ref(state.gamma0, state.beta0)
        assert float(abs((c_coef - c_ref) / c_ref)) <= 1e-15
        assert float(abs((b_coef - b_ref) / b_ref)) <= 1e-13


# Both sides of each series crossover: log-spaced below it up to its last
# float, linear from it to 1.5 rad for the closed in-well bracket.
ALPHA2_CROSSOVER = dalgarno_lewis._ALPHA2_SERIES_BELOW
BELOW_ALPHA2 = [float(v) for v in np.geomspace(1e-12, ALPHA2_CROSSOVER, 40)[:-1]] + [
    math.nextafter(ALPHA2_CROSSOVER, 0.0)
]
ABOVE_ALPHA2 = [float(v) for v in np.linspace(ALPHA2_CROSSOVER, 1.5, 40)]
BELOW_EDGE = [float(v) for v in np.geomspace(1e-12, CROSSOVER, 40)[:-1]] + [
    math.nextafter(CROSSOVER, 0.0)
]
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

    def test_cos_minus_sinc_series_coefficients(self):
        # sum_{k=1..5} (-1)^k 2k g^(2k) / (2k+1)!, the terms _cos_minus_sinc sums.
        g = symbolic.g
        expected = sum(
            (-1) ** k * 2 * k * g ** (2 * k) / sp.factorial(2 * k + 1) for k in range(1, 6)
        )
        assert sp.expand(symbolic.cos_minus_sinc_series() - expected) == 0

    @pytest.mark.parametrize("c_name", list(C_PRIMES))
    def test_alpha2_series_branch_matches_truncated_series(self, c_name):
        # Measured worst 3.3e-16.
        for gamma in BELOW_ALPHA2:
            c_prime = C_PRIMES[c_name](gamma)
            ref = symbolic.alpha2_bracket_series_ref(gamma, c_prime)
            got = dalgarno_lewis._alpha2_bracket(gamma, c_prime)
            assert float(abs((got - ref) / ref)) <= 1e-15, gamma

    @pytest.mark.parametrize("c_name", list(C_PRIMES))
    def test_alpha2_closed_branch_matches_integral(self, c_name):
        # The seven closed terms cancel most just above the crossover;
        # measured worst 6.9e-14.
        for gamma in ABOVE_ALPHA2:
            c_prime = C_PRIMES[c_name](gamma)
            ref = symbolic.alpha2_bracket_ref(gamma, c_prime)
            got = dalgarno_lewis._alpha2_bracket(gamma, c_prime)
            assert float(abs((got - ref) / ref)) <= 1e-13, gamma

    def test_edge_series_factor_matches_truncated_series(self):
        # Measured worst 2.0e-16.
        for gamma in BELOW_EDGE:
            ref = symbolic.cos_minus_sinc_series_ref(gamma)
            got = dalgarno_lewis._cos_minus_sinc(gamma)
            assert float(abs((got - ref) / ref)) <= 1e-15, gamma
