"""Delta-potential and hard-wall limit studies."""

import math

import pytest

from wellpol.errors import ConfigurationError, DomainError
from wellpol.limits import delta_limit, extrapolate, infinite_well_limit
from wellpol.well_spectrum import ground_state_from_R

HARD_WALL_ALPHA_EXACT = 0.07022473357056967
HARD_WALL_ALPHA2T_EXACT = -0.13241763371410586


def geometric(limit, ratio, count=4):
    return [limit + ratio**k for k in range(count)]


class TestExtrapolate:
    def test_given_quarter_ratio_is_exact(self):
        # every term and step is a dyadic fraction, so the limit is exact
        assert extrapolate(geometric(0.5, 0.25), ratio=0.25) == 0.5

    def test_given_small_ratio(self):
        assert extrapolate(geometric(2.0, 1e-2), ratio=1e-2) == pytest.approx(
            2.0, rel=1e-15
        )

    @pytest.mark.parametrize("limit,ratio", [(0.5, 0.25), (2.0, 1e-2), (-3.0, -0.5)])
    def test_measured_ratio_gives_same_limit(self, limit, ratio):
        assert extrapolate(geometric(limit, ratio)) == pytest.approx(limit, rel=1e-14)

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 1.0, 2.0],  # d_prev == 0
            [1.0, 2.0, 2.0],  # measured ratio 0
            [0.0, 1.0, 1.96],  # ratio 0.96
            [0.0, 1.0, 2.0],  # ratio 1: no decay
            [0.0, 1.0, 0.0],  # ratio -1: oscillates without decay
            [0.0, 5e-324, 1e300],  # ratio overflows
        ],
    )
    def test_fallbacks_return_last_value(self, values):
        assert extrapolate(values) == values[-1]


class TestDeltaLimit:
    def test_extrapolated_alpha1_is_five_fourths(self):
        seq = delta_limit(steps=12)
        assert seq.alpha1_extrapolated == pytest.approx(1.25, abs=1e-3)

    def test_extrapolated_alpha2_vanishes(self):
        seq = delta_limit(steps=12)
        assert abs(seq.alpha2_extrapolated) <= 1e-3

    def test_minimum_step_budget_still_converges(self):
        seq = delta_limit(steps=8)
        assert seq.alpha1_extrapolated == pytest.approx(1.25, abs=1e-3)
        assert abs(seq.alpha2_extrapolated) <= 1e-3

    def test_product_of_width_and_depth_constant(self):
        seq = delta_limit(steps=10)
        products = [a * v for a, v in zip(seq.a_values, seq.v0_values)]
        for p in products:
            assert p == pytest.approx(products[0], rel=1e-12)

    def test_alpha1_converges_monotonically(self):
        seq = delta_limit(steps=12)
        errors = [abs(v - 1.25) for v in seq.alpha1_scaled[-5:]]
        for earlier, later in zip(errors, errors[1:]):
            assert later < earlier

    def test_convergence_ratio_bounded(self):
        # Error should shrink by at least 0.6 per halving (observed ~0.25).
        seq = delta_limit(steps=12)
        errors = [abs(v - 1.25) for v in seq.alpha1_scaled[-5:]]
        for earlier, later in zip(errors, errors[1:]):
            assert later / earlier <= 0.6

    def test_boundary_weight_tends_to_decay_constant(self):
        # N'^2 cos^2(gamma0) / beta0 -> 1 along the collapsing sequence.
        seq = delta_limit(steps=12)
        checks = []
        for a, v in zip(seq.a_values, seq.v0_values):
            state = ground_state_from_R(math.sqrt(2.0 * a * a * v))
            checks.append(
                state.n_prime_sq * math.cos(state.gamma0) ** 2 / state.beta0
            )
        assert checks == sorted(checks)
        assert checks[-1] == pytest.approx(1.0, abs=5e-3)

    def test_rejects_too_few_steps(self):
        with pytest.raises(DomainError):
            delta_limit(steps=7)

    def test_rejects_step_underflow(self):
        with pytest.raises(ConfigurationError):
            delta_limit(steps=41)


class TestInfiniteWellLimit:
    def test_limits_at_default_epsilons(self):
        report = infinite_well_limit()
        assert abs(report.alpha1_limit) <= 1e-7
        assert report.alpha2_limit == pytest.approx(0.0702247, abs=1e-6)
        assert report.alpha2_t_limit == pytest.approx(-0.1324176, abs=1e-6)

    def test_limits_match_closed_forms_tightly(self):
        report = infinite_well_limit()
        assert report.alpha2_limit == pytest.approx(HARD_WALL_ALPHA_EXACT, abs=5e-10)
        assert report.alpha2_t_limit == pytest.approx(HARD_WALL_ALPHA2T_EXACT, abs=5e-10)

    @pytest.mark.parametrize("column", ["alpha2", "alpha2_t"])
    def test_smallest_epsilon_lies_between_value_and_limit(self, column):
        # Smooth first-order approach: the eps = 1e-7 evaluation sits strictly
        # between the eps = 1e-5 evaluation and the extrapolated limit.
        report = infinite_well_limit()
        assert report.epsilons[-2:] == (1e-5, 1e-7)
        f_eps, f_small = getattr(report, f"{column}_values")[-2:]
        limit = getattr(report, f"{column}_limit")
        assert min(f_eps, limit) < f_small < max(f_eps, limit)
