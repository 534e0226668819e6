"""Closed-form polarizability tests: published values, frozen oracles, ODE checks.

The exact proof that phi' solves the response equations, and the tie-in of
``_phi_inner`` / ``_phi_outer`` to it, live in ``test_symbolic.py``.
"""

import hashlib
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symbolic
from wellpol.dalgarno_lewis import (
    alpha2_prime_hard_wall,
    alpha_exact_prime,
    alpha_via_quadrature,
    breakdown,
    default_c_prime,
    phi_jump,
    phi_reduced,
)
from wellpol import dalgarno_lewis
from wellpol.dalgarno_lewis import _phi_inner, _phi_outer
from wellpol.errors import DomainError, NumericalError
from wellpol.well_spectrum import (
    GAMMA_MAX,
    GAMMA_MIN,
    GroundState,
    ground_state_from_R,
    ground_state_from_gamma,
)

PI = math.pi

# Frozen from tests/oracles.py.
PHI_OUTER_X2_039PI = 0.015191082987919545
ALPHA2T_QUAD_039PI = -0.26294270331254843
# TestPhi.test_jump_matches_pinned_bits: taken before C' moved from a
# record field to phi_jump itself, so the move is pinned bit for bit.
PHI_JUMP_SHA256 = "a50d863291d83e7d8af57ec289fc85cee3e498cad43139f63a58bcef499b52bd"
# TestBreakdown.test_fields_match_pinned_bits: taken while breakdown was a
# function building its record from four numbers, so moving the work into
# the record's constructor is pinned bit for bit.
BREAKDOWN_SHA256 = "4665b12a40f8c0a989ed89fa62ed6f6a33720290e2463d2dd876e90fa73084dd"
HARD_WALL_ALPHA_EXACT = 0.07022473357056967
HARD_WALL_ALPHA2T_EXACT = -0.13241763371410586
# gamma0 (rad) -> alpha2' of the paper's phi' by 40-digit quadrature.
ALPHA2_QUAD = {
    1e-6: 0.9782674001802496,
    1e-4: 0.9782673870800409,
    1e-2: 0.9781363958355124,
}
# gamma0 (rad) -> (alpha2', alpha2_t') of the paper's closed form at 80 digits
# and the same float gamma0.  0.05 and 0.07 straddle the series crossover.
ALPHA2_SMALL = {
    1e-02: (0.9781363958355124, -0.6666222243808198),
    1e-04: (0.9782673870800409, -0.6666666622222223),
    1e-06: (0.9782674001802496, -0.6666666666662222),
    1e-08: (0.9782674001815597, -0.6666666666666666),
    1e-10: (0.9782674001815598, -0.6666666666666666),
    1e-15: (0.9782674001815598, -0.6666666666666666),
    0.05: (0.9749987858841798, -0.6655569026931306),
    0.07: (0.9718736014773484, -0.6644940564485649),
}
# gamma0/pi -> alpha' of the edge-matched phi' by 40-digit quadrature, with
# (C, B) matched by mp.diff, so sharing no algebra with alpha_exact_prime.
ALPHA_EXACT_QUAD = {
    0.05: 3264330.310682011,
    0.19: 52.03576695106389,
    0.39: 0.21078209657111063,
    0.47: 0.09011594491287633,
    0.499: 0.07078935661439263,
}

# gamma0 (rad) -> .hex() of breakdown's (alpha1', alpha2', alpha2_t', alpha_apr'),
# frozen from the separate public functions it replaced: the domain's ends,
# the series crossover and its neighbouring floats, and the Table-1 rows.
_CROSS = dalgarno_lewis._ALPHA2_SERIES_BELOW
BREAKDOWN_HEX = {
    GAMMA_MIN: (
        "0x1.7fec216198dd9p+797", "0x1.f4df76f50ba4fp-1",
        "-0x1.5555555555555p-1", "0x1.bd90c5496a5eap+394",
    ),
    math.nextafter(_CROSS, 0.0): (
        "0x1.b9775b0f2db5ep+32", "0x1.f27718443b331p-1",
        "-0x1.5483fbe925555p-1", "0x1.a8a7d35968d52p+12",
    ),
    _CROSS: (
        "0x1.b9775b0f2db55p+32", "0x1.f27718443b768p-1",
        "-0x1.5483fbe925513p-1", "0x1.a8a7d35968d4dp+12",
    ),
    math.nextafter(_CROSS, 1.0): (
        "0x1.b9775b0f2db4dp+32", "0x1.f27718443b942p-1",
        "-0x1.5483fbe92533bp-1", "0x1.a8a7d35968d4dp+12",
    ),
    0.39 * PI: (
        "0x1.f15b7d8bdca8fp-7", "0x1.629b918157a1ap-3",
        "-0x1.0d40da1dcc020p-2", "0x1.7dd2fe43e859dp-3",
    ),
    0.41 * PI: (
        "0x1.6921646383b98p-8", "0x1.2e0b3a3f907aap-3",
        "-0x1.e621854e1a469p-3", "0x1.3b126de4db52dp-3",
    ),
    0.43 * PI: (
        "0x1.b3ff1814f136ap-10", "0x1.005e82eed09a0p-3",
        "-0x1.b33e393cb7e52p-3", "0x1.05bd55011e9bfp-3",
    ),
    0.45 * PI: (
        "0x1.7c59fafb295dcp-12", "0x1.b240f3b719616p-4",
        "-0x1.8204565306ef8p-3", "0x1.b5b084986267ep-4",
    ),
    0.47 * PI: (
        "0x1.4efe80fe3913cp-15", "0x1.6fa204313ca7bp-4",
        "-0x1.529b71f35e975p-3", "0x1.7048fe159ccfdp-4",
    ),
    0.49 * PI: (
        "0x1.c739adfeff0adp-22", "0x1.37d31af8f0618p-4",
        "-0x1.252669d42f3d8p-3", "0x1.37d882c202714p-4",
    ),
    GAMMA_MAX: (
        "0x1.13d299a5b0afcp-121", "0x1.1fa3f86d2ef1ep-4",
        "-0x1.0f30f9fd4ff91p-3", "0x1.1fa3ef6a3b3c8p-4",
    ),
}


def state_039():
    return ground_state_from_gamma(0.39 * PI)


def quadrature_pieces(state):
    """alpha' by the quadrature, split into its outer and inner pieces.

    These are the sums ``alpha_via_quadrature`` adds up, restricted to each
    region: the exact outer rule and the 16-point inner rule.
    """
    n_prime, outer, (inner,) = dalgarno_lewis._quadrature(state, (dalgarno_lewis._RULE_POINTS,))
    return n_prime * outer, n_prime * inner


def add_to_inner_phi(monkeypatch, defect):
    """Make the quadrature kernel integrate phi' + defect(x') on the inner panel.

    ``_inner_panel`` sums w psi0 x' phi' over the nodes, so the defect
    enters as that sum with defect(x') in place of phi'.
    """
    panel = dalgarno_lewis._inner_panel

    def contaminated(nodes, n_prime, g, g2, c_prime):
        extra = math.fsum(w * n_prime * math.cos(g * x) * x * defect(x) for x, w in nodes)
        return panel(nodes, n_prime, g, g2, c_prime) + extra

    monkeypatch.setattr(dalgarno_lewis, "_inner_panel", contaminated)


def phi_039(x):
    """The paper's phi'(x') at gamma0 = 0.39 pi: ``_phi_inner`` in the well,
    ``_phi_outer`` with env = e^{-beta0 (|x'| - 1)} outside it."""
    state = state_039()
    g, b = state.gamma0, state.beta0
    if abs(x) < 1.0:
        return _phi_inner(g, default_c_prime(g), x)
    return _phi_outer(g, b, x, math.exp(-b * (abs(x) - 1.0)))


class TestPhi:
    def test_vanishes_at_origin(self):
        assert phi_039(0.0) == 0.0

    @pytest.mark.parametrize("x", [0.5, 1.5, 3.0])
    def test_odd_parity(self, x):
        assert phi_039(x) + phi_039(-x) == 0.0

    def test_outer_value_against_frozen_oracle(self):
        assert phi_039(2.0) == pytest.approx(PHI_OUTER_X2_039PI, rel=1e-13)

    def test_default_c_prime(self):
        state = state_039()
        assert default_c_prime(state.gamma0) == pytest.approx(
            -((PI / 2) ** 2) / state.gamma0**2, rel=1e-15
        )

    @pytest.mark.parametrize(
        "gamma0",
        [0.0, 1e-200, 1e-155, math.nan, 0.5 * PI, pytest.param(-(10**5000), id="5001-digits")],
    )
    def test_default_c_prime_refuses_gamma_outside_every_state(self, gamma0):
        # 0.0 and 1e-200 raised ZeroDivisionError, and 1e-155 returned -inf;
        # printing an int of more than 4,300 digits raised ValueError.  No
        # float holds that int, so the real-input gate refuses it.
        rule = (r"\[GAMMA_MIN, pi/2\)" if isinstance(gamma0, float) else
                "^gamma0 must be within the float range, got a negative int of 16610 bits$")
        with pytest.raises(DomainError, match=rule):
            default_c_prime(gamma0)

    @pytest.mark.parametrize("gamma0", [GAMMA_MIN, 1e-8, 0.39 * PI, GAMMA_MAX])
    def test_c_coefficient_is_default_c_prime(self, gamma0):
        # phi_jump takes the state alone: its phi' has the paper's C'.
        state = ground_state_from_gamma(gamma0)
        g = state.gamma0
        inner = _phi_inner(g, default_c_prime(g), 1.0)
        assert phi_jump(state) == _phi_outer(g, state.beta0, 1.0, 1.0) - inner

    def test_phi_reduced_is_the_state(self):
        # The benchmark's phi_jump(phi_reduced(state)) is phi_jump(state).
        state = state_039()
        assert phi_reduced(state) is state

    def test_orthogonality_is_zero(self):
        # The benchmark's orthogonality(state): <psi0|phi'> vanishes by
        # parity, which TestPhi and criterion 8 check on phi' itself.
        assert dalgarno_lewis.orthogonality(state_039()) == 0.0

    def test_jump_is_reported_not_hidden(self):
        # The piecewise phi' is discontinuous at the edge by construction.
        jump = phi_jump(state_039())
        assert math.isfinite(jump)
        assert jump == pytest.approx(phi_039(1.0) - phi_039(1.0 - 1e-15), abs=1e-12)

    def test_jump_matches_pinned_bits(self):
        # sha256 of the float.hex of phi_jump at 1000 log-spaced gamma0 in
        # [1e-30, 1] and 1000 evenly spaced up to GAMMA_MAX, 400 times the
        # five states the golden files cover.
        gammas = [10.0 ** (-30.0 + 30.0 * k / 999) for k in range(1000)]
        gammas += [GAMMA_MAX * k / 1000 for k in range(1, 1001)]
        digest = hashlib.sha256()
        for gamma0 in gammas:
            state = ground_state_from_gamma(gamma0)
            digest.update(phi_jump(phi_reduced(state)).hex().encode())
        assert digest.hexdigest() == PHI_JUMP_SHA256


def _phi_longdouble(state, c_prime, x):
    """phi' re-evaluated in extended precision for finite-difference probes."""
    ld = np.longdouble
    g, b = ld(state.gamma0), ld(state.beta0)
    x = ld(x)
    if abs(x) < 1:
        return -(
            x * x * np.sin(g * x) / g
            + x * np.cos(g * x) / g**2
            + ld(c_prime) * np.sin(g * x) / g
        )
    ax = abs(x)
    mag = np.cos(g) * np.exp(-b * (ax - 1)) * (ax * ax / b + ax / b**2)
    return mag if x > 0 else -mag


def _fd_second(f, x, h=2e-3):
    # Five-point stencil; plain double precision cannot certify 1e-9 here,
    # so the function under test is evaluated in extended precision.
    vals = [f(np.longdouble(x) + k * np.longdouble(h)) for k in (-2, -1, 1, 2)]
    center = f(np.longdouble(x))
    return float(
        (-vals[3] + 16 * vals[2] - 30 * center + 16 * vals[1] - vals[0])
        / (12 * np.longdouble(h) ** 2)
    )


class TestOdeResiduals:
    @pytest.mark.parametrize("gamma_pi", [0.1, 0.39, 0.47])
    def test_analytic_residuals_vanish(self, gamma_pi):
        # Both residuals are identically 0 (symbolic proof), and the package's
        # phi' pieces are those expressions to 1e-14 relative at these points.
        assert symbolic.residuals() == (0, 0)
        state = ground_state_from_gamma(gamma_pi * PI)
        g, b = state.gamma0, state.beta0
        c_prime = default_c_prime(g)
        for x in np.linspace(0.05, 0.95, 20):
            assert symbolic.phi_inner_error(g, c_prime, float(x)) <= 1e-14
            assert symbolic.phi_inner_error(g, c_prime, -float(x)) <= 1e-14
        for x in np.linspace(1.05, 4.0, 20):
            env = math.exp(-b * (float(x) - 1.0))
            assert symbolic.phi_outer_error(g, b, float(x), env) <= 1e-14
            assert _phi_outer(g, b, -float(x), env) == -_phi_outer(g, b, float(x), env)

    @pytest.mark.parametrize("gamma_pi,x", [(0.39, 1.5), (0.47, 3.0)])
    def test_outer_residual_by_finite_differences(self, gamma_pi, x):
        state = ground_state_from_gamma(gamma_pi * PI)
        cp = default_c_prime(state.gamma0)
        g, b = state.gamma0, state.beta0
        second = _fd_second(lambda t: _phi_longdouble(state, cp, t), x)
        resid = (
            second
            - b * b * float(_phi_longdouble(state, cp, x))
            + 4.0 * x * math.cos(g) * math.exp(-b * (x - 1.0))
        )
        assert abs(resid) <= 1e-9

    @pytest.mark.parametrize("gamma_pi,x", [(0.39, 0.3), (0.47, 0.6)])
    def test_inner_residual_by_finite_differences(self, gamma_pi, x):
        state = ground_state_from_gamma(gamma_pi * PI)
        cp = default_c_prime(state.gamma0)
        g = state.gamma0
        second = _fd_second(lambda t: _phi_longdouble(state, cp, t), x)
        resid = second + g * g * float(_phi_longdouble(state, cp, x)) + 4.0 * x * math.cos(g * x)
        assert abs(resid) <= 1e-9

    def test_chi_term_solves_homogeneous_equation(self):
        # The correction sin-wave alone satisfies (d^2/dx^2 + gamma0^2) chi = 0.
        state = state_039()
        g = state.gamma0
        chi = lambda t: np.sin(np.longdouble(g) * t)
        for x in (0.3, 0.7):
            resid = _fd_second(chi, x) + g * g * float(chi(np.longdouble(x)))
            assert abs(resid) <= 1e-9

    def test_any_c_satisfies_inner_equation(self):
        # The inner residual is proven 0 with C a free symbol of phi'_in.
        assert symbolic.C in symbolic.phi_inner().free_symbols
        assert symbolic.residuals()[0] == 0
        g = state_039().gamma0
        for x in (0.2, 0.5, 0.8):
            assert symbolic.phi_inner_error(g, -1.0, x) <= 1e-14

    def test_wrong_quadratic_coefficient_is_detected(self):
        # Sensitivity probe: scaling the x^2 coefficient of the outer piece
        # by 1% must produce a residual far above the tolerance.
        state = state_039()
        g, b = state.gamma0, state.beta0

        def bad_phi(t):
            ld = np.longdouble
            ax = abs(t)
            mag = np.cos(ld(g)) * np.exp(-ld(b) * (ax - 1)) * (
                ld(1.01) * ax * ax / ld(b) + ax / ld(b) ** 2
            )
            return mag if t > 0 else -mag

        x = 1.5
        resid = (
            _fd_second(bad_phi, x)
            - b * b * float(bad_phi(np.longdouble(x)))
            + 4.0 * x * math.cos(g) * math.exp(-b * (x - 1.0))
        )
        assert abs(resid) > 1e-3


class TestAlpha1:
    def test_published_values(self):
        assert breakdown(state_039()).alpha1_prime == pytest.approx(0.015178, abs=1e-6)
        assert breakdown(ground_state_from_gamma(0.45 * PI)).alpha1_prime == pytest.approx(
            0.000363, abs=1e-6
        )

    def test_hard_wall_limit_vanishes(self):
        assert breakdown(ground_state_from_gamma(GAMMA_MAX)).alpha1_prime <= 1e-12


class TestAlpha2:
    def test_published_values(self):
        assert breakdown(state_039()).alpha2_prime == pytest.approx(0.173148, abs=1e-6)
        assert breakdown(ground_state_from_gamma(0.49 * PI)).alpha2_prime == pytest.approx(
            0.076129, abs=1e-6
        )

    def test_hard_wall_closed_form(self):
        assert alpha2_prime_hard_wall(-1.0) == pytest.approx(0.0702247, abs=1e-7)
        assert alpha2_prime_hard_wall(-1.0) == pytest.approx(
            HARD_WALL_ALPHA_EXACT, rel=1e-14
        )

    def test_trial_value_against_frozen_quadrature_oracle(self):
        assert breakdown(state_039()).alpha2_t_prime == pytest.approx(
            ALPHA2T_QUAD_039PI, rel=1e-12
        )

    @pytest.mark.parametrize("gamma", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-15])
    def test_shallow_wells_against_80_digit_closed_form(self, gamma):
        # The seven-term bracket cancels from ~gamma0^-5 down to ~gamma0^-2
        # (alpha2' read -0.53 and alpha2_t' -2.33 at 1e-8); below the
        # crossover its series is summed instead.  Worst measured: 3.3e-16.
        bd = breakdown(ground_state_from_gamma(gamma))
        a2, a2t = ALPHA2_SMALL[gamma]
        assert bd.alpha2_prime == pytest.approx(a2, rel=1e-15, abs=0.0)
        assert bd.alpha2_t_prime == pytest.approx(a2t, rel=1e-15, abs=0.0)
        assert bd.t_ratio == pytest.approx((a2 - a2t) / a2, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("gamma", [0.05, 0.07])
    def test_both_sides_of_series_crossover(self, gamma):
        # Series below _ALPHA2_SERIES_BELOW, closed form above it.  The worst
        # of the two forms on [0.02, 0.1] is 1.7e-13 relative to 80 digits.
        assert (gamma < dalgarno_lewis._ALPHA2_SERIES_BELOW) == (gamma == 0.05)
        bd = breakdown(ground_state_from_gamma(gamma))
        a2, a2t = ALPHA2_SMALL[gamma]
        assert bd.alpha2_prime == pytest.approx(a2, rel=2e-13, abs=0.0)
        assert bd.alpha2_t_prime == pytest.approx(a2t, rel=2e-13, abs=0.0)

    def test_trial_hard_wall_limit(self):
        assert alpha2_prime_hard_wall(0.0) == pytest.approx(-0.1324176, abs=1e-7)
        assert alpha2_prime_hard_wall(0.0) == pytest.approx(
            HARD_WALL_ALPHA2T_EXACT, rel=1e-14
        )

    @pytest.mark.parametrize("c_prime", [1e308, sys.float_info.max, -sys.float_info.max])
    def test_hard_wall_is_finite_up_to_the_largest_c_prime(self, c_prime):
        # -2 C' was formed before the division by pi^2 and overflowed.
        assert alpha2_prime_hard_wall(c_prime) == pytest.approx(
            -2.0 * (c_prime / PI**2), rel=1e-15
        )

    def test_hard_wall_keeps_its_bits_at_the_calibration_points(self):
        # C' = -1, 0 and 1 are calibrate_C's and the golden files' inputs.
        got = [alpha2_prime_hard_wall(c).hex() for c in (-1.0, 0.0, 1.0)]
        assert got == ["0x1.1fa3f860e5020p-4", "-0x1.0f30f9f1b9f10p-3", "-0x1.5719f809f3318p-2"]


def edge_coefficients(state):
    """The edge-matched (C, B): C = -(1 + 1/beta0)^2, B from the 60-digit solve."""
    return -((1.0 + 1.0 / state.beta0) ** 2), float(
        symbolic.edge_match_ref(state.gamma0, state.beta0)[1]
    )


class TestAlphaExact:
    @pytest.mark.parametrize("gamma_pi", sorted(ALPHA_EXACT_QUAD))
    def test_against_frozen_quadrature_oracle(self, gamma_pi):
        # Measured worst 6.7e-16.
        state = ground_state_from_gamma(gamma_pi * PI)
        assert alpha_exact_prime(state) == pytest.approx(
            ALPHA_EXACT_QUAD[gamma_pi], rel=1e-14
        )

    def test_within_stated_tolerance_of_80_digits(self):
        # The docstring's 2e-15, on a log grid over the whole domain and a
        # linear one over the deep wells.  Measured worst 1.1e-15.
        gammas = [float(v) for v in np.geomspace(GAMMA_MIN, GAMMA_MAX, 500)] + [
            float(v) for v in np.linspace(0.05, GAMMA_MAX, 400)
        ]
        worst = 0.0
        for gamma in gammas:
            ref = symbolic.alpha_exact_closed_ref(gamma, dps=80)
            got = alpha_exact_prime(ground_state_from_gamma(gamma))
            worst = max(worst, float(abs((got - ref) / ref)))
        assert worst <= 2e-15, worst

    @pytest.mark.parametrize("gamma", [GAMMA_MIN, 1e-12, 1e-8, 1e-4])
    def test_shallow_limit(self, gamma):
        # alpha' -> 5/(4 beta0^4) with no shallow-well branch.  Measured
        # 2.2e-16 at each.
        state = ground_state_from_gamma(gamma)
        assert alpha_exact_prime(state) * state.beta0**4 == pytest.approx(1.25, abs=1e-15)

    @pytest.mark.parametrize("gamma_pi", [0.05, 0.39, 0.49])
    def test_phi_and_slope_continuous_at_edge(self, gamma_pi):
        # Each piece is analytic through x' = 1, so both one-sided slopes
        # come from central differences in extended precision.
        state = ground_state_from_gamma(gamma_pi * PI)
        c_coef, b_coef = edge_coefficients(state)
        ld = np.longdouble
        gl, bl = ld(state.gamma0), ld(state.beta0)

        def inner(t):
            return -(
                t * t * np.sin(gl * t) / gl
                + t * np.cos(gl * t) / gl**2
                + ld(c_coef) * np.sin(gl * t) / gl
            )

        def outer(t):
            env = np.exp(-bl * (t - 1))
            return np.cos(gl) * env * (t * t / bl + t / bl**2) + ld(b_coef) * env

        def slope(f):
            # Step scaled to the outer decay length 1/beta0.
            x, h = ld(1), ld(1e-3) / (1 + bl)
            return float(
                (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
            )

        value_in = float(inner(ld(1)))
        scale = max(abs(value_in), abs(slope(inner)))
        assert abs(float(outer(ld(1))) - value_in) <= 1e-12 * scale
        assert abs(slope(outer) - slope(inner)) <= 1e-8 * scale
        # Sensitivity: the paper's C' leaves a jump far above these bands.
        assert abs(phi_jump(state)) > 1e-4 * scale

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    def test_hard_wall_limit(self, eps):
        state = ground_state_from_gamma(0.5 * PI - eps)
        c_coef, b_coef = edge_coefficients(state)
        assert abs(c_coef + 1.0) <= 2.0 * eps
        assert abs(b_coef) <= eps
        assert alpha_exact_prime(state) == pytest.approx(
            HARD_WALL_ALPHA_EXACT, abs=2.0 * eps
        )


def alpha_apr(R):
    return breakdown(ground_state_from_R(R)).alpha_apr_prime


class TestAlphaApr:
    def test_published_values(self):
        assert alpha_apr(3.617018) == pytest.approx(0.186438, abs=1e-6)
        # The published table lists this row's R as 15.589884, which is
        # inconsistent with gamma0^2 + beta0^2 = R^2 (and with the same
        # row's alpha_apr'); the consistent strength is 15.689884.
        assert alpha_apr(15.689884) == pytest.approx(0.089913, abs=1e-6)

    def test_limit_at_large_strength(self):
        assert alpha_apr(1e12) == pytest.approx(0.0702247, abs=1e-10)


class TestTRatio:
    def test_published_values(self):
        assert breakdown(state_039()).t_ratio == pytest.approx(2.52, abs=0.01)
        assert breakdown(ground_state_from_gamma(0.47 * PI)).t_ratio == pytest.approx(
            2.84, abs=0.01
        )

    def test_equals_bracket_ratio(self):
        # T is a ratio of brackets, so the normalisation N'^2 cancels.
        state = state_039()
        g = state.gamma0
        p = (PI / 2) ** 2
        numer = -p * math.cos(2 * g) / (2 * g**4) + p * math.sin(2 * g) / (4 * g**5)
        denom = breakdown(state).alpha2_prime / state.n_prime_sq
        assert breakdown(state).t_ratio == pytest.approx(numer / denom, rel=1e-12)


class TestBreakdown:
    def test_row_043(self):
        bd = breakdown(ground_state_from_gamma(0.43 * PI))
        assert bd.alpha1_prime == pytest.approx(0.001663, abs=1e-6)
        assert bd.alpha2_prime == pytest.approx(0.125180, abs=1e-6)
        assert bd.alpha_prime == pytest.approx(0.126843, abs=1e-6)
        assert bd.alpha_apr_prime == pytest.approx(0.127803, abs=1e-6)

    def test_row_019(self):
        bd = breakdown(ground_state_from_gamma(0.19 * PI))
        assert bd.alpha1_prime == pytest.approx(49.3, abs=0.5)
        assert bd.alpha2_prime == pytest.approx(0.620993, abs=1e-6)
        assert bd.alpha_prime == pytest.approx(49.9, abs=0.5)

    def test_row_041_total(self):
        bd = breakdown(ground_state_from_gamma(0.41 * PI))
        assert bd.alpha_prime == pytest.approx(0.152993, abs=1e-6)

    def test_sum_is_exact(self):
        # Series branch, shallow and deep closed-form rows, bit for bit.
        for gamma in (1e-8, 0.05, 0.19 * PI, 0.39 * PI, 0.49 * PI):
            bd = breakdown(ground_state_from_gamma(gamma))
            assert bd.alpha_prime == bd.alpha1_prime + bd.alpha2_prime
            a2, a2t = bd.alpha2_prime, bd.alpha2_t_prime
            assert bd.t_ratio == (a2 - a2t) / a2

    @pytest.mark.parametrize("gamma", sorted(BREAKDOWN_HEX))
    def test_inputs_match_frozen_bits(self, gamma):
        # breakdown shares one bracket evaluation between C' and C' = 0; any
        # change in the order of its operations would show here.
        bd = breakdown(ground_state_from_gamma(gamma))
        got = (bd.alpha1_prime, bd.alpha2_prime, bd.alpha2_t_prime, bd.alpha_apr_prime)
        assert tuple(v.hex() for v in got) == BREAKDOWN_HEX[gamma]

    def test_keeps_its_state(self):
        state = state_039()
        assert breakdown(state).state is state

    def test_fields_match_pinned_bits(self):
        # sha256 of the float.hex of the six value fields at 1000 log-spaced
        # gamma0 in [1e-30, 1] and 1000 evenly spaced up to GAMMA_MAX: 997 of
        # them take the series bracket and 1003 the closed form.
        gammas = [10.0 ** (-30.0 + 30.0 * k / 999) for k in range(1000)]
        gammas += [GAMMA_MAX * k / 1000 for k in range(1, 1001)]
        digest = hashlib.sha256()
        for gamma0 in gammas:
            bd = breakdown(ground_state_from_gamma(gamma0))
            for value in (bd.alpha1_prime, bd.alpha2_prime, bd.alpha2_t_prime,
                          bd.alpha_apr_prime, bd.alpha_prime, bd.t_ratio):
                digest.update(value.hex().encode())
        assert digest.hexdigest() == BREAKDOWN_SHA256


class TestQuadratureRoute:
    def test_total_matches_published(self):
        assert alpha_via_quadrature(state_039()) == pytest.approx(0.188326, abs=1e-6)

    def test_outer_only_matches_alpha1(self):
        assert quadrature_pieces(state_039())[0] == pytest.approx(0.015178, abs=1e-6)

    def test_self_consistency_at_045(self):
        state = ground_state_from_gamma(0.45 * PI)
        closed = breakdown(state).alpha_prime
        assert alpha_via_quadrature(state) == pytest.approx(closed, rel=1e-8)

    def test_inner_region_matches_alpha2(self):
        state = state_039()
        assert quadrature_pieces(state)[1] == pytest.approx(
            breakdown(state).alpha2_prime, rel=1e-9
        )


class TestGaussLegendre:
    """The fixed Gauss rules behind both quadrature routes: Gauss-Legendre
    inside the well, two-point Gauss-Laguerre in s = 2 beta0 (|x'| - 1)
    outside it."""

    # gamma0 from near the delta limit to near the hard wall.
    GRID = np.linspace(1e-6, GAMMA_MAX, 101)

    @pytest.mark.parametrize(
        "n", [dalgarno_lewis._RULE_POINTS, dalgarno_lewis._ESTIMATE_POINTS]
    )
    def test_rule_is_exact_for_polynomials_up_to_degree_2n_minus_1(self, n):
        # The rule is the tabulated nodes x' > 0 and their mirrors, each at
        # half the tabulated weight.
        nodes, weights = zip(
            *((sign * x, 0.5 * w) for x, w in dalgarno_lewis._panel_nodes(n) for sign in (-1, 1))
        )
        assert len(nodes) == n
        assert math.fsum(weights) == pytest.approx(2.0, abs=1e-15)
        for k in range(2 * n):
            moment = math.fsum(w * x**k for x, w in zip(nodes, weights))
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert moment == pytest.approx(exact, abs=2e-15), k

    def test_laguerre_rule_is_exact_for_cubics(self):
        # int_0^inf e^{-s} s^k ds = k!, and the nodes are the roots of
        # L_2(s) = (s^2 - 4 s + 2) / 2.
        rule = dalgarno_lewis._LAGUERRE
        assert len(rule) == 2
        for k in range(4):
            moment = math.fsum(w * s**k for s, w in rule)
            assert moment == pytest.approx(math.factorial(k), rel=1e-15, abs=0.0), k
        for s, _ in rule:
            assert abs(s * s - 4.0 * s + 2.0) <= 2e-15

    def test_total_matches_closed_form_without_warning_on_whole_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gamma in self.GRID:
                state = ground_state_from_gamma(float(gamma))
                closed = breakdown(state).alpha_prime
                assert alpha_via_quadrature(state) == pytest.approx(closed, rel=1e-12)

    def test_regions_match_alpha1_and_alpha2(self):
        # The outer nodes come from t = beta0 (|x'| - 1), not from a
        # rounded x', so the outer piece holds 1e-12 up to pi/2 - 1e-9,
        # where the nodes lie within 1.1e-9 of the edge in x'.  The closed
        # alpha2' sums its series on shallow wells, so the inner piece
        # holds 1e-12 down to gamma0 = 1e-6.
        for gamma in self.GRID:
            state = ground_state_from_gamma(float(gamma))
            outer, inner = quadrature_pieces(state)
            bd = breakdown(state)
            assert outer == pytest.approx(bd.alpha1_prime, rel=1e-12)
            assert inner == pytest.approx(bd.alpha2_prime, rel=1e-12)

    @pytest.mark.parametrize("gamma", sorted(ALPHA2_QUAD))
    def test_inner_region_matches_frozen_quadrature_on_shallow_wells(self, gamma):
        state = ground_state_from_gamma(gamma)
        assert quadrature_pieces(state)[1] == pytest.approx(ALPHA2_QUAD[gamma], rel=1e-12)

    def test_disagreeing_rules_raise(self, monkeypatch):
        add_to_inner_phi(monkeypatch, lambda x: abs(x - 0.3))
        with pytest.raises(NumericalError, match="did not converge"):
            alpha_via_quadrature(state_039())

    def test_even_integrand_is_evaluated_once_per_mirror_pair(self, monkeypatch):
        # alpha' evaluates the exact outer rule once, on the right side
        # only (2 nodes), and the inner nodes x' > 0 only, 8 + 5.
        evaluated = {"outer": [], "inner": []}

        class CountingRule(tuple):
            def __iter__(self):
                for node in super().__iter__():
                    evaluated["outer"].append(node)
                    yield node

        monkeypatch.setattr(
            dalgarno_lewis, "_LAGUERRE", CountingRule(dalgarno_lewis._LAGUERRE)
        )
        panel = dalgarno_lewis._inner_panel

        def count(nodes, *args):
            evaluated["inner"].extend(nodes)
            return panel(nodes, *args)

        monkeypatch.setattr(dalgarno_lewis, "_inner_panel", count)
        alpha_via_quadrature(state_039())
        assert len(evaluated["outer"]) == 2
        assert len(evaluated["inner"]) == 13
        assert all(x > 0.0 for x, _ in evaluated["inner"])


# gamma0 -> float.hex of alpha_via_quadrature and of its outer and inner
# pieces (``quadrature_pieces``).  The inner entries
# are those of the node-by-node kernel (one _phi_inner call per node).
QUADRATURE_HEX = {
    1e-20: (
        "0x1.c73892ecbfbf3p+531", "0x1.c73892ecbfbf3p+531", "0x1.f4df76f50ba51p-1"
    ),
    1e-08: (
        "0x1.e62c4e38ff86ap+212", "0x1.e62c4e38ff86ap+212", "0x1.f4df76f50ba50p-1"
    ),
    0.0599: (
        "0x1.bf676b55dcde3p+32", "0x1.bf676b54e3a19p+32", "0x1.f279243d67309p-1"
    ),
    0.06: (
        "0x1.b9775b1026f0fp+32", "0x1.b9775b0f2db56p+32", "0x1.f27718443b511p-1"
    ),
    0.39 * PI: (
        "0x1.81b1495a156c5p-3", "0x1.f15b7d8bdca8fp-7", "0x1.629b918157a1cp-3"
    ),
    0.49 * PI: (
        "0x1.37d38cc75be18p-4", "0x1.c739adfeff0b0p-22", "0x1.37d31af8f061cp-4"
    ),
    GAMMA_MAX: (
        "0x1.1fa3f86d2ef1fp-4", "0x1.13d299a5b0afcp-121", "0x1.1fa3f86d2ef1fp-4"
    ),
}


class TestQuadratureKernel:
    """The one-pass kernel against the scalar phi' helpers."""

    GRID = [1e-20, 1e-8, 1e-3, 0.0599, 0.06, *np.linspace(0.05, GAMMA_MAX, 41).tolist()]

    def test_each_call_reads_the_state_once(self, monkeypatch):
        # Every per-state constant is derived from one read of gamma0,
        # beta0 and n_prime_sq; each property of GroundState is counted.
        state = state_039()
        reads = []
        for name, attr in list(vars(GroundState).items()):
            if isinstance(attr, property):
                def counted(record, name=name, get=attr.fget):
                    reads.append(name)
                    return get(record)

                monkeypatch.setattr(GroundState, name, property(counted))
        alpha_via_quadrature(state)
        assert sorted(reads) == ["beta0", "gamma0", "n_prime_sq"]

    @pytest.mark.parametrize("gamma", sorted(QUADRATURE_HEX))
    def test_outputs_match_frozen_bits(self, gamma):
        state = ground_state_from_gamma(gamma)
        got = tuple(
            value.hex()
            for value in (alpha_via_quadrature(state), *quadrature_pieces(state))
        )
        assert got == QUADRATURE_HEX[gamma]

    @pytest.mark.parametrize(
        "n", [dalgarno_lewis._RULE_POINTS, dalgarno_lewis._ESTIMATE_POINTS]
    )
    def test_phi_at_every_node_matches_scalar_helpers(self, n, monkeypatch):
        # Each node is summed alone with unit weight and normalisation, so
        # the kernel returns its integrand there, which must equal the one
        # built on _phi_outer / _phi_inner bit for bit.  Outside, that is
        # e^{2t} psi0 x' phi' with e^{t} psi0 = 1, so the outer kernel's
        # e^{t} phi' is _phi_outer at env = 1.  The term of -x' must equal
        # that of x' bit for bit, so that summing the right side alone, the
        # inner nodes at doubled weights, gives the sum over both sides.
        inner = dalgarno_lewis._panel_nodes(n)
        assert len(inner) == n // 2
        assert all(x > 0.0 for x, _ in inner)
        rule = dalgarno_lewis._LAGUERRE
        for gamma in self.GRID:
            state = ground_state_from_gamma(gamma)
            g, b = state.gamma0, state.beta0
            cos_g, c_prime = math.cos(g), default_c_prime(g)
            for s, _ in rule:
                monkeypatch.setattr(dalgarno_lewis, "_LAGUERRE", ((s, 1.0),))
                x = 1.0 + 0.5 * s / b
                want = 1.0 * (x * dalgarno_lewis._phi_outer(g, b, x, 1.0))
                got = dalgarno_lewis._outer_panel(1.0, cos_g, b, b**2)
                assert got.hex() == want.hex(), (gamma, s)
                mirror = -x * dalgarno_lewis._phi_outer(g, b, -x, 1.0)
                assert mirror.hex() == want.hex(), (gamma, s)
            for x, _ in inner:
                phi = dalgarno_lewis._phi_inner(g, c_prime, x)
                want = 1.0 * ((math.cos(g * x) * x) * phi)
                got = dalgarno_lewis._inner_panel(((x, 1.0),), 1.0, g, g**2, c_prime)
                assert got.hex() == want.hex(), (gamma, x)
                mirror = dalgarno_lewis._inner_panel(((-x, 1.0),), 1.0, g, g**2, c_prime)
                assert mirror.hex() == got.hex(), (gamma, x)


class TestQuadratureProperties:
    """Quadrature against the closed forms over the whole gamma0 domain."""

    # Plain floats cluster near the top of the range, so half the draws are
    # log-uniform over the shallow wells.
    GAMMAS = st.one_of(
        st.floats(min_value=0.0, max_value=GAMMA_MAX, exclude_min=True),
        st.floats(min_value=-32.0, max_value=0.0).map(lambda e: 10.0**e),
    )

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(GAMMAS)
    def test_quadrature_matches_closed_forms(self, gamma):
        if gamma < GAMMA_MIN:
            with pytest.raises(DomainError):
                ground_state_from_gamma(gamma)
            return
        state = ground_state_from_gamma(gamma)
        bd = breakdown(state)
        assert quadrature_pieces(state)[0] == pytest.approx(bd.alpha1_prime, rel=1e-12)
        assert alpha_via_quadrature(state) == pytest.approx(bd.alpha_prime, rel=1e-12)


class TestSpecProperties:
    GAMMAS = np.linspace(0.1 * PI, 0.49 * PI, 52)[1:-1]

    def test_closed_form_vs_quadrature_grid(self):
        for gamma in self.GAMMAS:
            state = ground_state_from_gamma(float(gamma))
            closed = breakdown(state).alpha_prime
            assert alpha_via_quadrature(state) == pytest.approx(closed, rel=1e-8)

    def test_positivity(self):
        for gamma in np.linspace(0.1 * PI, 0.499 * PI, 60):
            assert breakdown(ground_state_from_gamma(float(gamma))).alpha_prime > 0.0

    def test_alpha_increases_as_strength_decreases(self):
        gammas = np.linspace(0.15 * PI, 0.49 * PI, 60)
        rows = [ground_state_from_gamma(float(g)) for g in gammas]
        strengths = [s.R for s in rows]
        alphas = [breakdown(s).alpha_prime for s in rows]
        assert strengths == sorted(strengths)
        for lo, hi in zip(alphas[1:], alphas[:-1]):
            assert hi > lo  # smaller gamma -> smaller R -> larger alpha

    def test_near_hard_wall_values(self):
        bd = breakdown(ground_state_from_gamma(0.5 * PI - 1e-7))
        assert bd.alpha1_prime <= 1e-7
        assert bd.alpha2_prime == pytest.approx(HARD_WALL_ALPHA_EXACT, abs=5e-8)
