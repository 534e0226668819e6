"""Delta-potential and hard-wall limit studies."""

import math

import pytest

from wellpol.errors import DomainError
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

    def test_given_ratio_removes_h2_and_h4_terms_exactly(self):
        # Three grid halvings of limit + h^2 + 3 h^4 (ratio 1/4 per halving):
        # Romberg's table removes both terms, every step a dyadic fraction.
        values = [1.0 + 0.25**k + 3.0 * 0.0625**k for k in range(3)]
        assert extrapolate(values, ratio=0.25) == 1.0

    def test_given_small_ratio(self):
        assert extrapolate(geometric(2.0, 1e-2), ratio=1e-2) == pytest.approx(
            2.0, rel=1e-15
        )

    def test_rejects_empty_values(self):
        with pytest.raises(DomainError, match="got 0 values"):
            extrapolate([], ratio=0.5)

    @pytest.mark.parametrize("ratio", [1.0, 2.0, 0.0, -0.5, math.nan])
    def test_rejects_ratio_outside_open_unit_interval(self, ratio):
        # ratio 1 would divide by zero, and [1, 2] at ratio 2 would give 0.0
        with pytest.raises(DomainError, match="got 2 values at ratio"):
            extrapolate([1.0, 2.0], ratio)

    def test_single_value_is_its_own_limit(self):
        assert extrapolate([3.0], ratio=0.5) == 3.0


class TestDeltaLimit:
    def test_extrapolated_alpha1_is_five_fourths(self):
        seq = delta_limit()
        assert seq.alpha1_extrapolated == pytest.approx(1.25, abs=1e-3)

    def test_extrapolated_alpha2_vanishes(self):
        seq = delta_limit()
        assert abs(seq.alpha2_extrapolated) <= 1e-3

    def test_romberg_at_half_reaches_rounding(self):
        # Every scaled column is a power series in a, which halves per step:
        # Romberg's table at ratio 1/2 over the 12 halvings leaves
        # alpha1 - 5/4 = -4.4e-16 and alpha2 = -1.7e-18 (measured).
        seq = delta_limit()
        assert len(seq.a_values) == 12
        assert abs(seq.alpha1_extrapolated - 1.25) <= 1e-14
        assert abs(seq.alpha2_extrapolated) <= 1e-15

    def test_product_of_width_and_depth_constant(self):
        # Powers of two: a V0 = 1/2 holds exactly at every step.
        seq = delta_limit()
        assert [a * v for a, v in zip(seq.a_values, seq.v0_values)] == [0.5] * 12

    def test_alpha1_converges_monotonically(self):
        seq = delta_limit()
        errors = [abs(v - 1.25) for v in seq.alpha1_scaled[-5:]]
        for earlier, later in zip(errors, errors[1:]):
            assert later < earlier

    def test_convergence_ratio_bounded(self):
        # Error should shrink by at least 0.6 per halving (observed ~0.25).
        seq = delta_limit()
        errors = [abs(v - 1.25) for v in seq.alpha1_scaled[-5:]]
        for earlier, later in zip(errors, errors[1:]):
            assert later / earlier <= 0.6

    def test_boundary_weight_tends_to_decay_constant(self):
        # N'^2 cos^2(gamma0) / beta0 -> 1 along the collapsing sequence.
        seq = delta_limit()
        checks = []
        for a, v in zip(seq.a_values, seq.v0_values):
            state = ground_state_from_R(math.sqrt(2.0 * a * a * v))
            checks.append(
                state.n_prime_sq * math.cos(state.gamma0) ** 2 / state.beta0
            )
        assert checks == sorted(checks)
        assert checks[-1] == pytest.approx(1.0, abs=5e-3)


class TestInfiniteWellLimit:
    def test_limits_at_default_epsilons(self):
        report = infinite_well_limit()
        assert abs(report.alpha1_limit) <= 1e-7
        assert report.alpha2_limit == pytest.approx(0.0702247, abs=1e-6)
        assert report.alpha2_t_limit == pytest.approx(-0.1324176, abs=1e-6)

    def test_limits_match_closed_forms_tightly(self):
        report = infinite_well_limit()
        # Romberg's table removes the eps and eps^2 terms: measured 2.4e-15
        # and 2.1e-16 relative.
        assert report.alpha2_limit == pytest.approx(HARD_WALL_ALPHA_EXACT, rel=1e-14)
        assert report.alpha2_t_limit == pytest.approx(HARD_WALL_ALPHA2T_EXACT, rel=1e-14)

    @pytest.mark.parametrize("column", ["alpha2", "alpha2_t"])
    def test_smallest_epsilon_lies_between_value_and_limit(self, column):
        # Smooth first-order approach: the eps = 1e-7 evaluation sits strictly
        # between the eps = 1e-5 evaluation and the extrapolated limit.
        report = infinite_well_limit()
        assert report.epsilons[-2:] == (1e-5, 1e-7)
        f_eps, f_small = getattr(report, f"{column}_values")[-2:]
        limit = getattr(report, f"{column}_limit")
        assert min(f_eps, limit) < f_small < max(f_eps, limit)
