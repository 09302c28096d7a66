"""Acceptance gate: the thirteen headline results, one PASS/FAIL line each.

Every test freezes its reference values inline (independently of the unit
test modules), drives the public API or the CLI, and prints exactly one
PASS or FAIL line naming the property it checked. Budgets are asserted
with time.perf_counter where a runtime is part of the contract.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest
from click.testing import CliRunner

from parkmodel import (
    Poly,
    RandomModel,
    estimate_expected_total,
    estimate_prob,
    expected_random_naples,
    full_census,
    iter_staircase_shapes,
    park_forward,
    park_naples_det,
    parking_choice_count,
    prob_random_naples,
    staircase_choice_count,
    tuple_for_numerator,
    tuple_for_odd_numerator,
    verify_circular,
    verify_direction_total,
    verify_monotonicity,
    verify_odd_census,
    verify_sandwich,
)
from parkmodel.cli import main as cli_main

from oracles import naive_choice_count

HALF = Fraction(1, 2)
MC_SEED = 20260815


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


# Expected-count columns for n = 1..8: classic count, expected count of the
# random backup rule at p = 1/2, midpoint of the two deterministic counts,
# and the deterministic backup-rule count.
TABLE_PARKING = {1: 1, 2: 3, 3: 16, 4: 125, 5: 1296, 6: 16807, 7: 262144, 8: 4782969}
TABLE_NAPLES = {1: 1, 2: 4, 3: 24, 4: 203, 5: 2225, 6: 30067, 7: 484071, 8: 9057316}
TABLE_EXPECTED = {
    1: "1/1",
    2: "7/2",
    3: "20/1",
    4: "653/4",
    5: "6977/4",
    6: "184971/8",
    7: "366699/1",
    8: "108464465/16",
}
TABLE_MIDPOINT = {
    1: "1/1",
    2: "7/2",
    3: "20/1",
    4: "164/1",
    5: "3521/2",
    6: "23437/1",
    7: "746215/2",
    8: "13840285/2",
}

# Parking probability of every 3-tuple under the one-step random backup
# rule, as ascending coefficient tuples in p.
ONE = (1,)
P = (0, 1)
THREE_CAR_POLYS = {
    (1, 1, 1): ONE, (1, 1, 2): ONE, (1, 1, 3): ONE,
    (1, 2, 1): ONE, (1, 2, 2): ONE, (1, 2, 3): ONE,
    (1, 3, 1): ONE, (1, 3, 2): ONE, (1, 3, 3): P,
    (2, 1, 1): ONE, (2, 1, 2): ONE, (2, 1, 3): ONE,
    (2, 2, 1): ONE, (2, 2, 2): (0, 2, -1), (2, 2, 3): P,
    (2, 3, 1): ONE, (2, 3, 2): P, (2, 3, 3): (),
    (3, 1, 1): ONE, (3, 1, 2): ONE, (3, 1, 3): P,
    (3, 2, 1): ONE, (3, 2, 2): P, (3, 2, 3): (),
    (3, 3, 1): P, (3, 3, 2): (0, 0, 1), (3, 3, 3): (),
}

# Histogram over all 7^7 tuples: numerator a (out of 64) -> tuple count.
SEVEN_CAR_HISTOGRAM = {
    0: 339472, 1: 1, 2: 136, 3: 1, 4: 2194, 5: 1, 6: 209, 7: 1,
    8: 12466, 9: 1, 10: 140, 11: 1, 12: 3107, 13: 1, 14: 143, 15: 1,
    16: 40610, 17: 1, 18: 141, 19: 1, 20: 1361, 21: 1, 22: 74, 23: 1,
    24: 14253, 25: 1, 26: 75, 27: 1, 28: 1589, 29: 1, 30: 148, 31: 1,
    32: 94792, 33: 1, 34: 30, 35: 1, 36: 1171, 37: 1, 38: 33, 39: 1,
    40: 4861, 41: 1, 42: 104, 43: 1, 44: 576, 45: 1, 46: 37, 47: 1,
    48: 35324, 49: 1, 50: 35, 51: 1, 52: 614, 53: 1, 54: 38, 55: 1,
    56: 6819, 57: 1, 58: 39, 59: 1, 60: 734, 61: 1, 62: 42, 63: 1,
    64: 262144,
}

# The unique 6-car tuple for each odd numerator out of 32.
SIX_CAR_ODD_TUPLES = {
    1: (6, 6, 5, 4, 3, 2),
    3: (5, 5, 5, 4, 3, 2),
    5: (5, 5, 4, 4, 3, 2),
    7: (4, 4, 4, 4, 3, 2),
    9: (5, 5, 4, 3, 3, 2),
    11: (4, 4, 4, 3, 3, 2),
    13: (4, 4, 3, 3, 3, 2),
    15: (3, 3, 3, 3, 3, 2),
    17: (5, 5, 4, 3, 2, 2),
    19: (4, 4, 4, 3, 2, 2),
    21: (4, 4, 3, 3, 2, 2),
    23: (3, 3, 3, 3, 2, 2),
    25: (4, 4, 3, 2, 2, 2),
    27: (3, 3, 3, 2, 2, 2),
    29: (3, 3, 2, 2, 2, 2),
    31: (2, 2, 2, 2, 2, 2),
}


def test_expected_count_table_via_cli():
    with criterion("expected-count table for n = 1..8 via the table command"):
        start = time.perf_counter()
        result = CliRunner().invoke(
            cli_main,
            ["table", "--n-max", "8", "--k", "1", "--p", "1/2", "--format", "json"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert len(rows) == 8
        for row in rows:
            n = row["n"]
            assert row["parking"] == TABLE_PARKING[n]
            assert row["naples"] == TABLE_NAPLES[n]
            assert row["expected"] == TABLE_EXPECTED[n]
            assert row["midpoint"] == TABLE_MIDPOINT[n]
        assert time.perf_counter() - start < 1.0


def test_three_car_probability_polynomials():
    with criterion("all 27 three-car probability polynomials"):
        start = time.perf_counter()
        matches = 0
        for prefs in product((1, 2, 3), repeat=3):
            got = prob_random_naples(prefs, k=1)
            assert got == Poly(THREE_CAR_POLYS[prefs]), prefs
            matches += 1
        assert matches == 27
        assert time.perf_counter() - start < 1.0


def test_seven_car_probability_census():
    with criterion("seven-car probability histogram over all 7^7 tuples"):
        start = time.perf_counter()
        table = full_census(7)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        for a, count in SEVEN_CAR_HISTOGRAM.items():
            assert table.count_for(a) == count, f"numerator {a}"
        assert table.total() == 7**7 == 823543
        assert table.expectation() == Fraction(366699)


def test_six_car_odd_numerator_tuples():
    with criterion("the sixteen six-car tuples with odd numerators"):
        start = time.perf_counter()
        report = verify_odd_census(6)
        assert report.passed
        assert report.findings == SIX_CAR_ODD_TUPLES
        for t in range(1, 17):
            alpha = tuple_for_odd_numerator(6, t)
            assert alpha == SIX_CAR_ODD_TUPLES[2 * t - 1]
            assert parking_choice_count(alpha) == 2 * t - 1
        assert time.perf_counter() - start < 1.0


def test_direction_total_is_constant_in_p():
    with criterion("direction-model probability sum is (n+1)^(n-1) for n <= 5"):
        for n in range(1, 6):
            report = verify_direction_total(n)
            assert report.passed, report.checks[0].detail


@pytest.mark.slow
def test_direction_total_six_cars():
    assert verify_direction_total(6).passed


def test_certain_and_impossible_tuples():
    with criterion(
        "probability 1 iff the forward walk parks; 0 iff the backup walk fails (n <= 5)"
    ):
        for n in range(1, 6):
            for prefs in product(range(1, n + 1), repeat=n):
                poly = prob_random_naples(prefs, k=1)
                assert (poly == Poly.one()) == park_forward(prefs).parked_all
                assert (poly == Poly.zero()) == (
                    not park_naples_det(prefs, 1).parked_all
                )


def test_backward_flip_monotonicity():
    with criterion(
        "flipping forward to backward never breaks parking (exhaustive 2 <= n <= 12)"
    ):
        for n in range(2, 13):
            assert verify_monotonicity(n).passed


def test_staircase_closed_form():
    with criterion("staircase closed form equals the hypercube count for n <= 7"):
        for n in range(2, 8):
            for shape in iter_staircase_shapes(n):
                assert staircase_choice_count(shape) == naive_choice_count(
                    shape.expand()
                )


def test_dyadic_numerator_surjectivity():
    with criterion("every numerator 0..2^(n-1) is realized for n in 3..7"):
        for n in range(3, 8):
            for a in range((1 << (n - 1)) + 1):
                alpha = tuple_for_numerator(n, a)
                assert parking_choice_count(alpha) == a


def test_expectation_sandwich():
    with criterion("classic count <= expected count <= midpoint for n <= 16"):
        report = verify_sandwich(16)
        assert report.passed
        assert len(report.checks) == 16


def test_recursion_matches_enumeration():
    with criterion(
        "expected-count recursion equals the polynomial sum for n <= 6"
    ):
        ps = [Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)]
        for n in range(1, 7):
            totals = {p: Fraction(0) for p in ps}
            for prefs in product(range(1, n + 1), repeat=n):
                poly = prob_random_naples(prefs, k=1)
                for p in ps:
                    totals[p] += poly.evaluate(p)
            for p in ps:
                assert totals[p] == expected_random_naples(n, 1, p), (n, p)


def test_circular_shift_and_column_sums():
    with criterion("ring model: shifts rotate and column sums are uniform (n <= 4)"):
        for n in range(1, 5):
            report = verify_circular(n)
            by_label = {c.label: c for c in report.checks}
            assert by_label["shift rotates the distribution"].passed
            assert by_label["per-spot column sums uniform"].passed
            assert report.passed


def test_monte_carlo_calibration():
    with criterion("simulation lands within four standard errors of exact"):
        direction = estimate_prob(
            (1, 2, 2, 1),
            RandomModel.DIRECTION,
            p=HALF,
            trials=1_000_000,
            seed=MC_SEED,
        )
        assert abs(direction.mean - 0.25) < 4 * direction.stderr

        naples = estimate_prob(
            (2, 2, 2), RandomModel.NAPLES, p=HALF, trials=1_000_000, seed=MC_SEED
        )
        assert abs(naples.mean - 0.75) < 4 * naples.stderr

        total = estimate_expected_total(
            12, RandomModel.NAPLES, tuple_samples=200_000, seed=MC_SEED
        )
        exact = expected_random_naples(12, 1, HALF) / Fraction(12**12)
        assert abs(total.mean - float(exact)) < 4 * total.stderr
