"""Hard-wall transition-sum tests and the C' calibration round trip."""

import math
import sys
from fractions import Fraction

import pytest
from mpmath import mp

from wellpol import conventional_sum
from wellpol.conventional_sum import (
    calibrate_C,
    infinite_well_alpha,
    infinite_well_term,
)
from wellpol.dalgarno_lewis import alpha2_prime_hard_wall
from wellpol.errors import DomainError

# Frozen from tests/oracles.py (box matrix elements by mpmath quadrature).
BOX_TERM2 = 0.07013171019950307
BOX_TERM4 = 8.976858905536392e-05
HARD_WALL_ALPHA_EXACT = 0.07022473357056967
HARD_WALL_ALPHA2T_EXACT = -0.13241763371410586


class TestTerms:
    def test_parity_selection_rule(self):
        assert infinite_well_term(3) == 0.0
        assert infinite_well_term(5) == 0.0

    def test_dominant_term_closed_form(self):
        term = infinite_well_term(2)
        assert term == pytest.approx(16384.0 / (243.0 * math.pi**6), rel=1e-12)
        assert term == pytest.approx(BOX_TERM2, rel=1e-13)

    def test_second_term_against_frozen_oracle(self):
        assert infinite_well_term(4) == pytest.approx(BOX_TERM4, rel=1e-13)

    def test_terms_fall_off_fast(self):
        assert infinite_well_term(4) / infinite_well_term(2) < 0.002

    def test_rejects_ground_state_index(self):
        with pytest.raises(DomainError):
            infinite_well_term(1)
        with pytest.raises(DomainError):
            infinite_well_term(0)

    @pytest.mark.parametrize(
        "n", [2 * 10**39, 2 * 10**60, 2 * 10**77, 10**200], ids=["2e39", "2e60", "2e77", "1e200"]
    )
    def test_refuses_even_index_whose_term_is_not_a_normal_float(self, n):
        # 2e39 returned a subnormal, 2e60 returned 0.0 and 2e77 raised
        # OverflowError converting (n^2 - 1)^2 to a float.
        with pytest.raises(DomainError, match=r"<= 3\.4e\+38"):
            infinite_well_term(n)

    def test_largest_indices_against_mpmath(self):
        # The closed form 4096 n^2 / (pi^6 (n^2 - 1)^5) at 40 digits; an odd
        # index past the bound still vanishes by parity.
        for n in (2 * 10**38, 34 * 10**37):
            with mp.workdps(40):
                ref = float(4096 * mp.mpf(n) ** 2 / (mp.pi**6 * (mp.mpf(n) ** 2 - 1) ** 5))
            assert infinite_well_term(n) == pytest.approx(ref, rel=1e-15, abs=0.0)
            assert infinite_well_term(n) >= sys.float_info.min
        assert ref == pytest.approx(2.385774407079709e-308, rel=1e-15)
        assert infinite_well_term(2 * 10**38) == pytest.approx(1.6642583572733637e-306, rel=1e-15)
        assert infinite_well_term(10**200 + 1) == 0.0

    @pytest.mark.parametrize("n", [2.5, 4.0, math.nan])
    def test_rejects_non_integer_index(self, n):
        # 2.5 returned 0.0066764 for a transition that does not exist.
        with pytest.raises(DomainError, match="must be an integer"):
            infinite_well_term(n)


class TestPartialSums:
    def test_one_term_value(self):
        result = infinite_well_alpha(1)
        assert result == pytest.approx(0.07013, abs=1e-5)
        assert result / infinite_well_alpha(50) >= 0.99

    def test_converged_sum_hits_hard_wall_value(self):
        # The complete transition series resums to the closed-form box
        # polarizability; 50 terms decay as n^-8 and are fully converged.
        assert infinite_well_alpha(50) == pytest.approx(HARD_WALL_ALPHA_EXACT, rel=1e-12)

    def test_monotone_increasing_partial_sums(self):
        values = [infinite_well_alpha(n) for n in range(1, 12)]
        for earlier, later in zip(values, values[1:]):
            assert later > earlier

    def test_term_values_strictly_decreasing(self):
        terms = [infinite_well_term(2 * k) for k in range(1, 11)]
        assert all(t > 0.0 for t in terms)
        for earlier, later in zip(terms, terms[1:]):
            assert later < earlier
        assert infinite_well_alpha(10) == math.fsum(terms)

    def test_converged_terms_fix_the_double_for_every_larger_count(self):
        # In exact arithmetic.  fsum rounds the exact sum S of the float terms
        # once, and the terms are positive, so the sum over any larger count
        # lies in [S, S + T], T a bound on the tail of the float terms; both
        # ends rounding to one double (Fraction's float() rounds correctly)
        # pins it for every count.  A float term is within ~1e-15 of
        # 4096 n^2 / (pi^6 (n^2 - 1)^5), and 961 is 4e-4 below pi^6, so
        # it is at most c / n^8 with n^2 - 1 >= (15/16) n^2 from n = 4;
        # summed over n = 2k, k > N, that is at most c / (256 * 7 N^7).
        count = conventional_sum._CONVERGED_TERMS
        exact = sum(Fraction(infinite_well_term(2 * k)) for k in range(1, count + 1))
        c = Fraction(4096) / (961 * Fraction(15, 16) ** 5)
        for k in (*range(count + 1, count + 500), 10**6, 10**12, 10**30):
            assert Fraction(infinite_well_term(2 * k)) <= c / Fraction(2 * k) ** 8
        tail = c / (256 * 7 * count**7)
        assert float(exact) == float(exact + tail) == infinite_well_alpha(count)
        assert infinite_well_alpha(count).hex() == "0x1.1fa3f860e5020p-4"
        # The CLI's count of 50 is short of it.
        assert infinite_well_alpha(50).hex() == "0x1.1fa3f860e4f53p-4"

    @pytest.mark.parametrize("num_terms", [201, 10**12, 10**40])
    def test_larger_counts_sum_only_the_converged_terms(self, monkeypatch, num_terms):
        # 10**6 terms took a second, and 10**40 reached the refused index.
        calls = []

        def counting(n):
            calls.append(n)
            if len(calls) > conventional_sum._CONVERGED_TERMS:
                raise AssertionError("summed past the converged terms")
            return infinite_well_term(n)

        monkeypatch.setattr(conventional_sum, "infinite_well_term", counting)
        assert infinite_well_alpha(num_terms).hex() == "0x1.1fa3f860e5020p-4"
        assert len(calls) == conventional_sum._CONVERGED_TERMS

    def test_rejects_empty_sum(self):
        with pytest.raises(DomainError):
            infinite_well_alpha(0)

    @pytest.mark.parametrize("num_terms", [2.5, 4.0, math.nan])
    def test_rejects_non_integer_count(self, num_terms):
        # 2.5 raised TypeError from range().
        with pytest.raises(DomainError, match="must be an integer"):
            infinite_well_alpha(num_terms)


class TestCalibration:
    def test_round_trip_of_hard_wall_value(self):
        target = alpha2_prime_hard_wall(-1.0)
        assert target == pytest.approx(0.0702247, abs=5e-8)
        assert calibrate_C(target) == pytest.approx(-1.0, abs=1e-9)

    def test_one_term_target_lands_near_minus_one(self):
        c = calibrate_C(infinite_well_term(2))
        assert c == pytest.approx(-1.0, abs=0.01)

    def test_trial_limit_target_gives_zero(self):
        assert calibrate_C(HARD_WALL_ALPHA2T_EXACT) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("c_true", [-2.0, -1.0, -0.5, 0.0])
    def test_identity_on_c(self, c_true):
        assert calibrate_C(alpha2_prime_hard_wall(c_true)) == pytest.approx(
            c_true, abs=1e-10
        )

    def test_agreement_band_with_one_term(self):
        # The two routes that fix C' differ by well under 2e-4 in alpha'.
        gap = alpha2_prime_hard_wall(-1.0) - infinite_well_term(2)
        assert abs(gap) <= 2e-4

    def test_rejects_non_finite_target(self):
        with pytest.raises(DomainError):
            calibrate_C(math.nan)

    @pytest.mark.parametrize("target", [1e308, -1e308, 4e307])
    def test_rejects_finite_target_whose_c_prime_overflows(self, target):
        # C' = (target - intercept) / slope, slope = -2/pi^2: past ~3.6e307 the
        # quotient is -inf or inf, once returned for a finite target.
        with pytest.raises(DomainError, match="not a finite float"):
            calibrate_C(target)

    def test_largest_targets_give_finite_c_prime(self):
        assert math.isfinite(calibrate_C(3.5e307))
        assert math.isfinite(calibrate_C(-3.5e307))
