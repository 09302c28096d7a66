"""Counting recursions against frozen reference values and enumeration."""

from fractions import Fraction

import pytest

from parkmodel import (
    NaplesSemantics,
    expected_random_direction,
    expected_random_naples,
    naples_count,
    parking_count,
    prob_random_direction,
    prob_random_naples,
)
from parkmodel.recursions import _cluster_factor, as_fraction

from oracles import all_tuples

HALF = Fraction(1, 2)

PARKING_COUNTS = {
    1: 1,
    2: 3,
    3: 16,
    4: 125,
    5: 1296,
    6: 16807,
    7: 262144,
    8: 4782969,
}

NAPLES_COUNTS = {
    1: 1,
    2: 4,
    3: 24,
    4: 203,
    5: 2225,
    6: 30067,
    7: 484071,
    8: 9057316,
}

EXPECTED_AT_HALF = {
    1: Fraction(1),
    2: Fraction(7, 2),
    3: Fraction(20),
    4: Fraction(653, 4),
    5: Fraction(6977, 4),
    6: Fraction(184971, 8),
    7: Fraction(366699),
    8: Fraction(108464465, 16),
}


class TestFrozenValues:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_parking_counts(self, n):
        assert parking_count(n) == PARKING_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_naples_counts(self, n):
        assert naples_count(n, 1) == NAPLES_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_expected_totals_at_one_half(self, n):
        assert expected_random_naples(n, 1, HALF) == EXPECTED_AT_HALF[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_direction_total_is_parking_count(self, n):
        assert expected_random_direction(n) == parking_count(n)


class TestDegenerateEndpoints:
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_p0_collapses_to_parking_count(self, n, k):
        assert expected_random_naples(n, k, 0) == parking_count(n)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_p1_collapses_to_naples_count(self, n, k):
        assert expected_random_naples(n, k, 1) == naples_count(n, k)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_k0_is_parking_count_for_every_p(self, n):
        for p in (0, Fraction(1, 3), HALF, 1):
            assert expected_random_naples(n, 0, p) == parking_count(n)


class TestStructure:
    def test_monotone_in_p(self):
        ps = [Fraction(i, 8) for i in range(9)]
        for n in (3, 5, 8, 12):
            vals = [expected_random_naples(n, 1, p) for p in ps]
            assert vals == sorted(vals)

    def test_monotone_in_k(self):
        for n in (4, 6, 9):
            vals = [expected_random_naples(n, k, HALF) for k in range(5)]
            assert vals == sorted(vals)
        caps = [naples_count(5, k) for k in range(6)]
        assert caps == sorted(caps)

    def test_k_saturates_at_n_minus_1(self):
        for n in (3, 4, 6):
            ref = expected_random_naples(n, n - 1, HALF)
            assert expected_random_naples(n, n + 3, HALF) == ref
            assert naples_count(n, n - 1) == naples_count(n, n + 5)

    def test_saturated_naples_parks_everything(self):
        for n in (2, 3, 4, 5, 6):
            assert naples_count(n, n - 1) == n**n

    def test_cluster_factor_smallest_window(self):
        assert _cluster_factor(1) == 1
        assert _cluster_factor(2) == 1
        assert _cluster_factor(3) == 3
        assert isinstance(_cluster_factor(1), int)


class TestAgainstEnumeration:
    """Dual route: the recursion vs a straight sum of exact polynomials."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_naples_total_matches_polynomial_sum(self, n, k):
        firstfit = NaplesSemantics.FIRST_FIT_BACKWARD
        for p in (0, Fraction(1, 4), HALF, Fraction(3, 4), 1):
            total = sum(
                prob_random_naples(t, k, firstfit).evaluate(p)
                for t in all_tuples(n)
            )
            assert total == expected_random_naples(n, k, p)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_direction_total_matches_polynomial_sum(self, n):
        for p in (0, Fraction(1, 3), HALF, 1):
            total = sum(
                prob_random_direction(t).evaluate(p) for t in all_tuples(n)
            )
            assert total == expected_random_direction(n)


class TestValidation:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            expected_random_naples(3, 1, 0.5)
        with pytest.raises(TypeError):
            as_fraction(0.25)

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValueError):
            expected_random_naples(3, 1, Fraction(3, 2))
        with pytest.raises(ValueError):
            expected_random_naples(3, 1, -1)

    def test_rejects_bad_n_and_k(self):
        with pytest.raises(ValueError):
            parking_count(0)
        with pytest.raises(ValueError):
            naples_count(-2)
        with pytest.raises(ValueError):
            naples_count(3, -1)
        with pytest.raises(ValueError):
            expected_random_naples(True, 1, HALF)

    def test_fraction_coercion(self):
        assert as_fraction(1) == Fraction(1)
        assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)


def test_counts_stay_int_after_expected_values_at_the_endpoints():
    # Fraction(1) == 1 and both hash alike, so the shared recursion's cache
    # must keep the Fraction runs apart from the int counts.
    assert expected_random_naples(5, 2, 1) == naples_count(5, 2)
    assert expected_random_naples(5, 0, 0) == parking_count(5)
    assert type(naples_count(5, 2)) is int
    assert type(parking_count(5)) is int
    assert type(expected_random_naples(5, 2, 1)) is Fraction
