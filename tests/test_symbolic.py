"""phi' solves the response equations exactly, and the package's floats match it.

The proof is symbolic (``tests/symbolic.py``): both residuals expand to
exactly 0 with the homogeneous coefficients C and B left free.  The tie-in then
evaluates the same expressions with mpmath at exactly the floats that
``_phi_inner``, ``_phi_outer`` and ``_edge_match`` receive.
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
