"""Ground-state solver tests: published rows, frozen oracles, invariants."""

import importlib
import math

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import oracles
from oracles import cos_root

from wellpol.errors import DomainError, NumericalError
from wellpol.well_spectrum import (
    GAMMA_MAX,
    GAMMA_MIN,
    GroundState,
    WellSpec,
    ground_state_from_R,
    ground_state_from_gamma,
)

PI = math.pi

# Frozen from tests/oracles.py (40-digit bisection on the quantisation system).
R4_GAMMA0 = 1.2523532340025887
R4_BETA0 = 3.798896073503888
NPRIME_SQ_039PI = 0.7728915455299401
BETA0_BISECT = {
    1e-08: 1e-16,
    1e-06: 9.999999999993331e-13,
    1e-04: 9.999999933333336e-09,
    1e-02: 9.999333413321653e-05,
    0.3: 0.08511622267855154,
    1.0: 0.6736120291832148,
    3.0: 2.76239333954543,
    10.0: 9.897580306264054,
    1e03: 999.9987687623978,
    1e06: 999999.9999987663,
    1e09: 1000000000.0,
}
GAMMA0_BISECT = {
    1e-08: 1e-08,
    1e-06: 9.999999999995e-07,
    1e-04: 9.999999950000001e-05,
    1e-02: 0.009999500054159154,
    0.3: 0.28767208525843313,
    1.0: 0.7390851332151607,
    3.0: 1.170120950002626,
    10.0: 1.4275517787645942,
    1e03: 1.569227099051814,
    1e06: 1.5707947560001405,
    1e09: 1.5707963252241004,
}


class TestGroundStateFromR:
    def test_table_row_one(self):
        state = ground_state_from_R(3.617018)
        assert state.gamma0 == pytest.approx(0.39 * PI, abs=1e-6)
        assert state.beta0 == pytest.approx(3.403183, abs=1e-6)

    def test_table_row_six(self):
        state = ground_state_from_R(49.008061)
        assert state.gamma0 == pytest.approx(0.49 * PI, abs=1e-6)
        assert state.beta0 == pytest.approx(48.983879, abs=1e-6)

    def test_r_equal_four_against_bisection_oracle(self):
        state = ground_state_from_R(4.0)
        assert state.gamma0 == pytest.approx(R4_GAMMA0, abs=1e-14)
        assert state.beta0 == pytest.approx(R4_BETA0, abs=1e-13)

    @pytest.mark.parametrize("R", sorted(BETA0_BISECT))
    def test_beta0_against_bisection_oracle(self, R):
        # sqrt(R^2 - gamma0^2) cancels on shallow wells (82% off at 1e-8)
        # and gamma0 tan(gamma0) is steep on deep ones (7.5e-8 off at 1e9);
        # R sin(gamma0) does neither.
        beta0 = ground_state_from_R(R).beta0
        assert beta0 == pytest.approx(BETA0_BISECT[R], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("R", sorted(GAMMA0_BISECT))
    def test_gamma0_against_bisection_oracle(self, R):
        gamma0 = ground_state_from_R(R).gamma0
        assert gamma0 == pytest.approx(
            GAMMA0_BISECT[R], rel=0.0, abs=math.ulp(GAMMA0_BISECT[R])
        )

    def test_root_residual(self):
        for R in (0.05, 0.5, 3.617018, 9.037118, 49.008061):
            state = ground_state_from_R(R)
            f = state.gamma0 * math.tan(state.gamma0) - math.sqrt(
                state.R**2 - state.gamma0**2
            )
            assert abs(f) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_strength(self, bad):
        with pytest.raises(DomainError):
            ground_state_from_R(bad)

    def test_floor_strength_gives_floor_gamma(self):
        # The true root R - R^3/2 rounds to R, so R = GAMMA_MIN is a state.
        assert ground_state_from_R(GAMMA_MIN).gamma0 == GAMMA_MIN

    @pytest.mark.parametrize("R", [1e-31, 1e-300, 5e-324])
    def test_strength_below_floor_is_a_domain_error(self, R):
        # gamma0 < R, so the state would fall below GAMMA_MIN; the refusal
        # names that floor rather than a beta0 that underflowed to 0.
        with pytest.raises(DomainError, match=r"R must be >= GAMMA_MIN = 1e-30"):
            ground_state_from_R(R)

    @pytest.mark.parametrize("R", [1.6e12, 1e13, 1e300])
    def test_root_above_hard_wall_margin_is_refused(self, R):
        # The root lies within 1e-12 of pi/2 from R ~ 1.57e12 on: bad input.
        with pytest.raises(DomainError, match=r"R must be <= 1\.57e\+12, .* got "):
            ground_state_from_R(R)


class TestGroundStateFromGamma:
    def test_table_row_one(self):
        state = ground_state_from_gamma(0.39 * PI)
        assert state.beta0 == pytest.approx(3.403183, abs=1e-6)
        assert state.R == pytest.approx(3.617018, abs=1e-6)

    def test_table2_row_three(self):
        state = ground_state_from_gamma(0.15 * PI)
        assert state.beta0 == pytest.approx(0.240108, abs=1e-6)
        assert state.R == pytest.approx(0.528884, abs=1e-6)

    def test_shallow_limit(self):
        gamma = 1e-4
        state = ground_state_from_gamma(gamma)
        assert state.beta0 == pytest.approx(gamma**2, rel=1e-7)
        assert state.R < 2e-4

    @pytest.mark.parametrize("bad", [0.0, -0.2, 0.5 * PI, 0.6 * PI])
    def test_rejects_out_of_interval(self, bad):
        with pytest.raises(DomainError):
            ground_state_from_gamma(bad)

    def test_floor_is_refused_from_either_constructor(self):
        # Below GAMMA_MIN the closed-form alpha1' divided by zero (1e-40)
        # or returned inf (1e-31); both constructors now refuse the state.
        assert ground_state_from_gamma(GAMMA_MIN).gamma0 == GAMMA_MIN
        for gamma in (0.5 * GAMMA_MIN, 1e-31, 1e-40):
            with pytest.raises(DomainError, match="overflows"):
                ground_state_from_gamma(gamma)
            with pytest.raises(DomainError, match="overflows"):
                ground_state_from_R(gamma)


class TestNormalization:
    def test_frozen_high_precision_value(self):
        state = ground_state_from_gamma(0.39 * PI)
        assert state.n_prime_sq == pytest.approx(NPRIME_SQ_039PI, rel=1e-14)

    def test_consistent_with_table_alpha1(self):
        # Substituting N'^2 into the forbidden-region bracket must give the
        # published alpha1' at gamma0 = 0.47 pi.
        state = ground_state_from_gamma(0.47 * PI)
        b = state.beta0
        bracket = 1 / b**2 + 5 / (2 * b**3) + 5 / (2 * b**4) + 5 / (4 * b**5)
        alpha1 = state.n_prime_sq * math.cos(state.gamma0) ** 2 * bracket
        assert alpha1 == pytest.approx(3.99e-5, abs=1e-7)

    def test_rejects_zero_beta(self):
        with pytest.raises(DomainError):
            GroundState(1.0, 0.0, 1.0)

    def test_rejects_non_finite_beta(self):
        # An infinite beta0 passes both quantisation residuals (each is
        # compared with an infinite bound), so the finite check refuses it.
        with pytest.raises(DomainError, match="finite and positive"):
            GroundState(1.0, math.inf, math.inf)
        with pytest.raises(DomainError):
            GroundState(1.0, math.nan, math.nan)

    @pytest.mark.parametrize("R", [math.inf, 1e300])
    def test_rejects_R_without_a_finite_square(self, R):
        # R = inf met its infinite strength bound and constructed; R = 1e300
        # raised OverflowError from R**2.
        with pytest.raises(DomainError, match="R must be finite and positive"):
            GroundState(1.0, math.tan(1.0), R)

    def test_rejects_beta_without_a_finite_square(self):
        # Next to pi/2, beta0 = 1e300 meets the tan residual's ulp allowance
        # and raised OverflowError from beta0**2.
        with pytest.raises(DomainError, match="beta0 must be finite and positive"):
            GroundState(math.nextafter(0.5 * math.pi, 0.0), 1e300, 1.0)


BITS_400, BITS_5000 = "a positive int of 1329 bits", "a negative int of 16610 bits"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ground_state_from_R(10**400),
         f"R must be within the float range, got {BITS_400}"),
        (lambda: ground_state_from_gamma(10**400),
         f"gamma0 must be within the float range, got {BITS_400}"),
        (lambda: GroundState(0.86, 10**400, 1.0),
         f"beta0 must be within the float range, got {BITS_400}"),
        (lambda: GroundState(0.86, 1.0, 10**400),
         f"R must be within the float range, got {BITS_400}"),
        (lambda: ground_state_from_R(-(10**5000)),
         f"R must be within the float range, got {BITS_5000}"),
        (lambda: GroundState(-(10**5000), 0.5, 1.0),
         f"gamma0 must be within the float range, got {BITS_5000}"),
    ],
    ids=["ground_state_from_R", "ground_state_from_gamma", "beta0", "R",
         "ground_state_from_R-5001-digits", "gamma0-5001-digits"],
)
def test_ints_past_the_float_range_are_refused(make, message):
    # An int that no float holds raised OverflowError from math.isfinite or
    # from float arithmetic, and printing one of more than 4,300 digits raised
    # ValueError; each is bad input, printed by sign and bit length.
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


class TestPsi0:
    @pytest.mark.parametrize("gamma_pi", [0.15, 0.39, 0.49])
    def test_unit_norm_by_quadrature(self, gamma_pi):
        # psi0 * sqrt(a) = N' cos(gamma0 x') in the well and
        # N' cos(gamma0) e^{-beta0 (|x'| - 1)} outside it, even in x'.
        state = ground_state_from_gamma(gamma_pi * PI)
        n_prime, g, b = math.sqrt(state.n_prime_sq), state.gamma0, state.beta0

        def psi0(x):
            if abs(x) <= 1:
                return n_prime * mp.cos(g * x)
            return n_prime * mp.cos(g) * mp.exp(-b * (abs(x) - 1))

        cut = 1.0 + 40.0 / b
        with mp.workdps(15):
            norm = math.fsum(
                float(mp.quad(lambda x: psi0(x) ** 2, [lo, hi]))
                for lo, hi in ((-cut, -1.0), (-1.0, 1.0), (1.0, cut))
            )
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_log_derivative_continuity(self):
        # Inner slope -gamma0 tan(gamma0) equals outer slope -beta0: this is
        # the quantisation condition itself.
        for gamma_pi in (0.15, 0.39, 0.49):
            state = ground_state_from_gamma(gamma_pi * PI)
            inner = -state.gamma0 * math.tan(state.gamma0)
            assert abs(inner - (-state.beta0)) <= 1e-10


class TestRootProperties:
    """The root against a 32-digit mpmath root over the whole R domain."""

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(st.floats(min_value=-8.0, max_value=9.0).map(lambda e: 10.0**e))
    def test_root_matches_mpmath(self, R):
        # gamma0 is the rounded root or its neighbour.  beta0's worst
        # measured error is 3.1e-16 over 10^4 log-uniform R.
        state = ground_state_from_R(R)
        gamma_ref, beta_ref = (float(v) for v in cos_root(R, dps=32))
        assert state.gamma0 == pytest.approx(gamma_ref, rel=0.0, abs=math.ulp(gamma_ref))
        assert state.beta0 == pytest.approx(beta_ref, rel=4e-16, abs=0.0)


def test_importing_the_oracles_leaves_mpmath_precision_alone():
    # Each oracle sets its own precision, so the digits of a reference taken
    # outside a workdps block do not depend on which module was imported first.
    with mp.workdps(23):
        importlib.reload(oracles)
        assert mp.dps == 23


class TestInvariants:
    GAMMAS = [0.02 * PI + k * (0.479 * PI - 0.02 * PI) / 99 for k in range(100)]

    def test_round_trip_identity_on_gamma(self):
        # Log grid from 1e-8 to GAMMA_MAX: R(gamma0) and back within one ulp.
        top = math.log10(GAMMA_MAX)
        for k in range(2001):
            gamma = min(10.0 ** (-8.0 + k * (top + 8.0) / 2000.0), GAMMA_MAX)
            state = ground_state_from_gamma(gamma)
            back = ground_state_from_R(state.R)
            assert back.gamma0 == pytest.approx(gamma, rel=0.0, abs=math.ulp(gamma))

    def test_quantisation_residuals(self):
        for gamma in self.GAMMAS:
            state = ground_state_from_gamma(gamma)
            assert abs(state.gamma0 * math.tan(state.gamma0) - state.beta0) <= 1e-10
            assert abs(state.gamma0**2 + state.beta0**2 - state.R**2) <= 1e-10

    def test_energy_is_minus_beta_squared(self):
        state = ground_state_from_gamma(0.3 * PI)
        assert state.energy_dimless == -state.beta0**2

    def test_direct_construction_is_validated(self):
        # 1 * tan(1) = 1.56, not 2: the quantisation residual refuses it.
        with pytest.raises(NumericalError, match="quantisation residual"):
            GroundState(gamma0=1.0, beta0=2.0, R=5.0)

    def test_shallow_well_residual_is_relative(self):
        # At R = 1e-8 every quantisation term is ~1e-16, so an absolute
        # bound passed the cancelled beta0 = 1.82e-16 (true value 1.00e-16).
        gamma0 = ground_state_from_R(1e-8).gamma0
        beta0 = 1.82e-16
        with pytest.raises(NumericalError):
            GroundState(gamma0=gamma0, beta0=beta0, R=1e-8)

    def test_solved_states_pass_relative_residuals(self):
        # Dense log grids over the whole domain: R in [1e-8, 1e9], and
        # gamma0 from 1e-8 up to GAMMA_MAX, with the last decades below
        # pi/2 sampled by their distance to it.  Each state's N'^2 is its
        # expression at 40 digits on the state's own gamma0 and beta0 to
        # within 1e-15 relative (measured 3.2e-16), and its energy is -beta0^2
        # bit for bit.
        top = math.log10(GAMMA_MAX)
        states = (
            [ground_state_from_R(10.0 ** (-8.0 + k / 100.0)) for k in range(1701)]
            + [ground_state_from_gamma(10.0 ** (-8.0 + k * (top + 8.0) / 1000.0))
               for k in range(1001)]
            + [ground_state_from_gamma(GAMMA_MAX - 10.0 ** (-9.0 + k / 100.0))
               for k in range(901)]
        )
        with mp.workdps(40):
            for state in states:
                g, b = mp.mpf(state.gamma0), mp.mpf(state.beta0)
                exact = 1 / (1 + mp.sin(g) * mp.cos(g) / g + mp.cos(g) ** 2 / b)
                assert abs(state.n_prime_sq - exact) <= 1e-15 * exact
                assert state.energy_dimless == -state.beta0**2


class TestWellSpec:
    def test_strength_matches_definition(self):
        spec = WellSpec(half_width=2.0, depth=3.0, mass=1.5, charge=-1.0, hbar=2.0)
        expected = math.sqrt(2.0 * 1.5 * 2.0**2 * 3.0) / 2.0
        assert spec.strength_R == pytest.approx(expected, rel=1e-15)

    def test_polarizability_unit(self):
        spec = WellSpec(half_width=2.0, depth=1.0, mass=3.0, charge=-2.0, hbar=0.5)
        assert spec.polarizability_unit == pytest.approx(
            3.0 * 4.0 * 16.0 / 0.25, rel=1e-15
        )

    def test_ground_state_round_trip(self):
        spec = WellSpec(half_width=1.0, depth=8.0, mass=1.0, charge=1.0)
        state = spec.ground_state()
        assert state.R == pytest.approx(spec.strength_R, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"half_width": 0.0, "depth": 1.0, "mass": 1.0, "charge": 1.0},
            {"half_width": 1.0, "depth": -1.0, "mass": 1.0, "charge": 1.0},
            {"half_width": 1.0, "depth": 1.0, "mass": 0.0, "charge": 1.0},
            {"half_width": 1.0, "depth": 1.0, "mass": 1.0, "charge": 0.0},
            {"half_width": 1.0, "depth": 1.0, "mass": 1.0, "charge": 1.0, "hbar": 0.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(DomainError):
            WellSpec(**kwargs)

    @pytest.mark.parametrize(
        "fields, unit",
        [
            # Each took its power past the float range, raising OverflowError
            # from the property of a spec that had been built.
            ((1.0, 1.0, 1.0, 10**300), "inf"),
            ((10**200, 1.0, 1.0, 1.0), "inf"),
            ((1.0, 1.0, 1.0, 1e300), "inf"),
            ((1e200, 1.0, 1.0, 1.0), "inf"),
            ((1e-100, 1.0, 1.0, 1.0), "0.0"),  # a^4 underflows
            # hbar^2 underflows to 0: each raised ZeroDivisionError.
            ((1.0, 1.0, 1.0, 1.0, 1e-200), "inf"),
            ((1e-10, 1.0, 1.0, 1.0, 2.2e-309), "inf"),
        ],
    )
    def test_rejects_unit_outside_the_float_range(self, fields, unit):
        with pytest.raises(DomainError) as info:
            WellSpec(*fields)
        assert str(info.value) == f"derived polarizability unit is {unit}, not finite and positive"
