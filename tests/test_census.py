"""Distribution census, staircase constructions, and the report verifiers."""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parkmodel
import parkmodel.census as census
from parkmodel import (
    NaplesSemantics,
    Poly,
    StaircaseShape,
    compare_naples_semantics,
    expected_random_naples,
    full_census,
    is_staircase,
    iter_staircase_shapes,
    naples_count,
    parking_choice_count,
    parking_count,
    prob_random_direction,
    prob_random_naples,
    shape_of,
    staircase_choice_count,
    tuple_for_numerator,
    tuple_for_odd_numerator,
    verify_direction_total,
    verify_monotonicity,
    verify_odd_census,
    verify_sandwich,
)
from parkmodel.census import _sweep, _transfer_matrices
from parkmodel.core import _rule
from parkmodel.exact import _POLY_FACTORS, _point_weight, _success_sum

from oracles import all_tuples, naive_choice_count, naive_prob_at, probe_points

JUMP = NaplesSemantics.JUMP_BACK_THEN_FORWARD
FIRSTFIT = NaplesSemantics.FIRST_FIT_BACKWARD
HALF = Fraction(1, 2)


class TestFullCensus:
    def test_single_car(self):
        table = full_census(1)
        assert table.counts == (0, 1)
        assert table.denominator == 1
        assert table.expectation() == 1

    def test_two_cars_by_hand(self):
        table = full_census(2)
        assert table.counts == (0, 1, 3)
        assert table.expectation() == Fraction(7, 2)

    def test_three_cars_by_hand(self):
        table = full_census(3)
        assert table.counts == (3, 1, 6, 1, 16)
        assert table.total() == 27

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_hypercube_census(self, n):
        hist = Counter(naive_choice_count(t) for t in all_tuples(n))
        table = full_census(n)
        for a, c in table.items():
            assert c == hist.get(a, 0)

    @pytest.mark.parametrize("n", [5, 6])
    def test_marginal_invariants(self, n):
        table = full_census(n)
        assert table.total() == n**n
        assert table.count_for(table.denominator) == parking_count(n)
        assert table.count_for(0) == n**n - naples_count(n, 1)
        assert table.expectation() == expected_random_naples(n, 1, HALF)

    @pytest.mark.parametrize("numerator", [-1, 5, 1.5, True])
    def test_count_for_rejects_numerators_outside_the_table(self, numerator):
        with pytest.raises(ValueError):
            full_census(3).count_for(numerator)

    def test_thread_count_does_not_change_the_result(self):
        assert full_census(5, threads=3) == full_census(5, threads=1)

    def test_pool_opened_before_numpy_is_loaded(self):
        """The pool workers of an interpreter that has not loaded numpy yet
        sum to the one-process census."""
        child = (
            "import json, sys\n"
            "from parkmodel import full_census\n"
            "before = 'numpy' in sys.modules\n"
            "print(json.dumps([before, full_census(5, threads=2).counts]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(parkmodel.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        before, counts = json.loads(proc.stdout)
        assert before is False
        assert tuple(counts) == full_census(5).counts

    def test_wider_backup_with_either_semantics(self):
        ff = full_census(4, k=2, semantics=FIRSTFIT)
        jp = full_census(4, k=2, semantics=JUMP)
        assert ff.total() == jp.total() == 4**4
        assert ff.expectation() == expected_random_naples(4, 2, HALF)
        assert ff.expectation() == Fraction(727, 4)
        assert jp.expectation() == Fraction(1487, 8)

    def test_gating(self):
        with pytest.raises(ValueError):
            full_census(8)
        with pytest.raises(ValueError):
            full_census(10, allow_large=True)
        with pytest.raises(ValueError):
            full_census(0)
        with pytest.raises(ValueError):
            full_census(3, k=0)
        with pytest.raises(ValueError):
            full_census(3, threads=0)

    def test_semantics_value_means_its_member(self):
        ff = full_census(4, k=2, semantics="firstfit")
        assert ff == full_census(4, k=2, semantics=FIRSTFIT)
        assert ff.semantics is FIRSTFIT
        for bad in ("first-fit", 2, None):
            with pytest.raises(ValueError):
                full_census(3, semantics=bad)

    def test_k_and_threads_must_be_plain_ints(self):
        for bad in (True, 1.5, "2", None):
            with pytest.raises(ValueError):
                full_census(4, k=bad)
            with pytest.raises(ValueError):
                full_census(4, threads=bad)

    @pytest.mark.parametrize("semantics", [JUMP, FIRSTFIT])
    def test_two_workers_match_one(self, semantics):
        one = full_census(6, 2, semantics, threads=1)
        assert full_census(6, 2, semantics, threads=2) == one

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [2, 3])
    def test_firstfit_marginals_match_the_recursion(self, n, k):
        table = full_census(n, k, FIRSTFIT)
        assert table.count_for(table.denominator) == parking_count(n)
        assert table.count_for(0) == n**n - naples_count(n, k)
        assert table.expectation() == expected_random_naples(n, k, HALF)

    def test_self_checks_run_for_firstfit_at_k_two(self, monkeypatch):
        def shifted(n, rule, prefixes):
            hist = np.zeros((1 << (n - 1)) + 1, dtype=np.int64)
            hist[1] = n**n  # right total, wrong everything else
            return hist

        monkeypatch.setattr(census, "_census_histogram", shifted)
        with pytest.raises(RuntimeError):
            full_census(4, 2, FIRSTFIT)
        assert full_census(4, 2, JUMP).total() == 4**4

    def test_eight_car_census_when_unlocked(self):
        table = full_census(8, allow_large=True)
        assert table.total() == 8**8
        assert table.count_for(128) == parking_count(8)
        assert table.expectation() == expected_random_naples(8, 1, HALF)

    @pytest.mark.slow
    def test_nine_car_census_passes_its_self_checks(self):
        # full_census raises RuntimeError unless the total, the full and zero
        # counts and the expectation all match the recursions.
        table = full_census(9, k=1, allow_large=True)
        assert table.total() == 9**9
        assert table.count_for(256) == parking_count(9)
        assert table.count_for(0) == 9**9 - naples_count(9, 1)
        assert table.expectation() == expected_random_naples(9, 1, HALF)


class TestTransferKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("semantics", [JUMP, FIRSTFIT])
    def test_every_tuple_matches_the_hypercube_count(self, n, k, semantics):
        mats = _transfer_matrices(n, _rule("naples", k, semantics))
        counts = next(_sweep(mats, [()]))
        firstfit = semantics is FIRSTFIT
        expected = [naive_choice_count(t, k, firstfit) for t in all_tuples(n)]
        assert counts.dtype == np.int64
        assert counts.tolist() == expected

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_prefix_chunks_tile_the_whole_sweep(self, n):
        mats = _transfer_matrices(n, _rule("naples", 2, FIRSTFIT))
        prefixes = list(product(range(1, n + 1), repeat=2))
        chunks = [counts.copy() for counts in _sweep(mats, prefixes)]
        assert np.concatenate(chunks).tolist() == next(_sweep(mats, [()])).tolist()

    @pytest.mark.parametrize("n", [3, 5])
    def test_every_prefix_fills_one_count_buffer(self, n):
        mats = _transfer_matrices(n, _rule("naples", 1, JUMP))
        prefixes = list(product(range(1, n + 1), repeat=2))
        # Holding every yielded array keeps a fresh allocation off a freed address.
        yielded = list(_sweep(mats, prefixes))
        assert len(yielded) == n * n
        assert len({counts.ctypes.data for counts in yielded}) == 1

    def test_float32_exactness_bound_is_enforced_before_the_automaton(
        self, monkeypatch
    ):
        built = []

        def automaton(*args):
            built.append(args[1])
            raise LookupError("automaton reached")

        monkeypatch.setattr(census, "_automaton", automaton)
        with pytest.raises(ValueError, match="float32"):
            _transfer_matrices(26, _rule("naples", 1, JUMP))
        assert built == []
        with pytest.raises(LookupError, match="automaton reached"):
            _transfer_matrices(25, _rule("naples", 1, JUMP))
        assert built == [25]


class TestStaircaseShapes:
    def test_is_staircase_examples(self):
        assert is_staircase((2, 2))
        assert is_staircase((2, 2, 2))
        assert is_staircase((3, 3, 2))
        assert is_staircase((4, 4, 3, 3, 2, 2))
        assert not is_staircase((2,))
        assert not is_staircase((1, 1))
        assert not is_staircase((3, 2, 2))
        assert not is_staircase((2, 2, 3))
        assert not is_staircase((4, 4, 2, 2))

    def test_expand_and_shape_of_roundtrip(self):
        for n in range(2, 8):
            for shape in iter_staircase_shapes(n):
                alpha = shape.expand()
                assert is_staircase(alpha)
                assert len(alpha) == shape.n == n
                assert alpha[0] == shape.top
                assert shape_of(alpha) == shape

    def test_expand_examples(self):
        assert StaircaseShape((2,)).expand() == (2, 2)
        assert StaircaseShape((1, 2)).expand() == (3, 3, 2)
        assert StaircaseShape((3, 1, 2)).expand() == (4, 4, 3, 2, 2, 2)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_shape_count(self, n):
        shapes = list(iter_staircase_shapes(n))
        assert len(shapes) == 1 << (n - 2)
        assert len(set(shapes)) == len(shapes)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StaircaseShape(())
        with pytest.raises(ValueError):
            StaircaseShape((2, 1))
        with pytest.raises(ValueError):
            StaircaseShape((0, 2))
        with pytest.raises(ValueError):
            StaircaseShape((True, 2))
        with pytest.raises(ValueError):
            shape_of((1, 2, 3))
        with pytest.raises(ValueError):
            iter_staircase_shapes(1)

    @pytest.mark.parametrize(
        "helper,arg,message",
        [
            (iter_staircase_shapes, "3", "car count n must be an integer, got '3'"),
            (iter_staircase_shapes, 3.0, "car count n must be an integer, got 3.0"),
            (shape_of, (3, 3, 2.0), "preference of car 3 must be an integer, got 2.0"),
            (shape_of, (3.0, 3, 2), "preference of car 1 must be an integer, got 3.0"),
            (iter_staircase_shapes, 1, "staircase tuples need n >= 2, got 1"),
            (shape_of, (3, 2), "(3, 2) is not a staircase tuple"),
        ],
    )
    def test_staircase_helpers_raise_value_errors(self, helper, arg, message):
        with pytest.raises(ValueError) as info:
            helper(arg)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", range(2, 8))
    def test_closed_form_matches_both_counting_routes(self, n):
        for shape in iter_staircase_shapes(n):
            alpha = shape.expand()
            g = staircase_choice_count(shape)
            assert g & 1
            assert g == parking_choice_count(alpha)
            assert g == naive_choice_count(alpha)


class TestOddInverse:
    def test_six_car_spot_values(self):
        assert tuple_for_odd_numerator(6, 1) == (6, 6, 5, 4, 3, 2)
        assert tuple_for_odd_numerator(6, 4) == (4, 4, 4, 4, 3, 2)
        assert tuple_for_odd_numerator(6, 16) == (2, 2, 2, 2, 2, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_inverts_the_closed_form(self, n):
        for t in range(1, (1 << (n - 2)) + 1):
            alpha = tuple_for_odd_numerator(n, t)
            assert parking_choice_count(alpha) == 2 * t - 1
            assert is_staircase(alpha)

    def test_larger_n_still_resolves(self):
        alpha = tuple_for_odd_numerator(12, 1)
        assert alpha == (12, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2)
        assert parking_choice_count(alpha) == 1

    @pytest.mark.parametrize("n, t", [(3, True), (3.0, 1), (3, 1.0)])
    def test_rejects_non_int_arguments(self, n, t):
        with pytest.raises(ValueError, match="must be an integer"):
            tuple_for_odd_numerator(n, t)

    def test_validation(self):
        with pytest.raises(ValueError):
            tuple_for_odd_numerator(1, 1)
        with pytest.raises(ValueError):
            tuple_for_odd_numerator(6, 0)
        with pytest.raises(ValueError):
            tuple_for_odd_numerator(6, 17)
        for n in (25, 1000):
            assert tuple_for_odd_numerator(n, 1) == (n,) + tuple(range(n, 1, -1))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_form_equals_the_shape_scan(self, n):
        by_count = {
            staircase_choice_count(shape): shape.expand()
            for shape in iter_staircase_shapes(n)
        }
        for t in range(1, (1 << (n - 2)) + 1):
            assert tuple_for_odd_numerator(n, t) == by_count[2 * t - 1]

    @given(st.integers(2, 1000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, 1 << (n - 2)))
    ))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_at_large_n(self, case):
        n, t = case
        alpha = tuple_for_odd_numerator(n, t)
        assert len(alpha) == n and is_staircase(alpha)
        assert staircase_choice_count(shape_of(alpha)) == 2 * t - 1
        assert parking_choice_count(alpha) == 2 * t - 1


class TestDyadicInverse:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_numerator_is_hit(self, n):
        for a in range(0, (1 << (n - 1)) + 1):
            alpha = tuple_for_numerator(n, a)
            assert len(alpha) == n
            assert parking_choice_count(alpha) == a

    def test_edge_witnesses(self):
        assert tuple_for_numerator(1, 1) == (1,)
        assert tuple_for_numerator(2, 2) == (1, 1)
        assert tuple_for_numerator(2, 1) == (2, 2)
        assert tuple_for_numerator(3, 0) == (3, 3, 3)

    def test_two_cars_have_no_zero_witness(self):
        with pytest.raises(ValueError):
            tuple_for_numerator(2, 0)
        with pytest.raises(ValueError):
            tuple_for_numerator(1, 0)

    def test_long_runs_of_trailing_zero_bits(self):
        n = 1000
        assert tuple_for_numerator(n, 1 << 998) == tuple(range(1, 999)) + (n, n)
        for a in ((1 << 998) - (1 << 500), 3 << 900, 5):
            alpha = tuple_for_numerator(n, a)
            assert len(alpha) == n
            assert parking_choice_count(alpha) == a

    @pytest.mark.parametrize("n, a", [(3, 2.0), (3.0, 2), (3, True)])
    def test_rejects_non_int_arguments(self, n, a):
        with pytest.raises(ValueError, match="must be an integer"):
            tuple_for_numerator(n, a)

    def test_validation(self):
        with pytest.raises(ValueError):
            tuple_for_numerator(0, 0)
        with pytest.raises(ValueError):
            tuple_for_numerator(3, -1)
        with pytest.raises(ValueError):
            tuple_for_numerator(3, 5)


class TestVerifiers:
    def test_odd_census_small(self):
        report = verify_odd_census(5)
        assert report.passed
        assert set(report.findings) == set(range(1, 16, 2))
        for g, alpha in report.findings.items():
            assert alpha == tuple_for_odd_numerator(5, (g + 1) // 2)

    def test_odd_census_seven_cars(self):
        report = verify_odd_census(7)
        assert report.passed
        assert len(report.findings) == 32

    def test_odd_census_eight_cars(self):
        report = verify_odd_census(8)
        assert report.passed
        assert set(report.findings) == set(range(1, 128, 2))
        for g, alpha in report.findings.items():
            assert alpha == tuple_for_odd_numerator(8, (g + 1) // 2)

    @pytest.mark.parametrize("prefix", [(1, 2), (3, 3)])
    def test_odd_census_catches_a_planted_odd_count(self, monkeypatch, prefix):
        # (1, 2) holds no staircase and is never searched for one; (3, 3) is
        # searched, and its row (3, 3, 1, 1, 1) is no staircase.
        sweep = census._sweep

        def planted(mats, prefixes):
            for chunk, counts in zip(prefixes, sweep(mats, prefixes)):
                if chunk == prefix:
                    counts[0] |= 1
                yield counts

        monkeypatch.setattr(census, "_sweep", planted)
        report = verify_odd_census(5)
        parity = report.checks[0]
        assert parity.label == "odd count iff staircase"
        assert not parity.passed
        assert parity.detail == "3125 tuples swept, 1 violations"
        assert not report.passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_odd_census_staircase_test_matches_is_staircase(self, monkeypatch, n):
        # Counts that are odd exactly on is_staircase tuples leave no parity
        # violation only if the census tests every tuple the same way,
        # including the chunks it never searches for staircases.
        def staircase_parity(mats, prefixes):
            for prefix in prefixes:
                rests = product(range(1, n + 1), repeat=n - 2)
                yield np.array([is_staircase(prefix + r) for r in rests], np.int64)

        monkeypatch.setattr(census, "_sweep", staircase_parity)
        parity, _, count, _ = verify_odd_census(n).checks
        assert parity.detail == f"{n**n} tuples swept, 0 violations"
        assert count.passed

    def test_sandwich(self):
        report = verify_sandwich(10)
        assert report.passed
        assert len(report.checks) == 10
        assert report.findings[4]["expected"] == "653/4"

    def test_monotonicity_exhaustive_and_sampled(self):
        assert verify_monotonicity(4).passed
        assert verify_monotonicity(7, samples=2000, seed=1).passed

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("samples", [0, -3, True, 2.5])
    def test_monotonicity_rejects_bad_sample_counts(self, n, samples):
        # A zero-flip run would otherwise report PASSED having checked nothing.
        with pytest.raises(ValueError, match="samples"):
            verify_monotonicity(n, samples=samples)

    @pytest.mark.parametrize("n", [3, 6])
    def test_monotonicity_rejects_a_negative_seed(self, n):
        # random.Random(-5) draws what random.Random(5) draws, so -5 would
        # check the flips of seed 5 while reporting seed -5.
        with pytest.raises(ValueError, match="seed"):
            verify_monotonicity(n, samples=10, seed=-5)

    def test_direction_total(self):
        report = verify_direction_total(4)
        assert report.passed
        assert "125" in report.checks[0].detail

    def test_semantics_comparison_k1(self):
        report = compare_naples_semantics(4, 1)
        assert report.passed
        assert report.findings["jump"] == report.findings["firstfit"]
        assert report.findings["jump"] == report.findings["recursion"]

    def test_semantics_comparison_k2(self):
        report = compare_naples_semantics(4, 2)
        assert report.passed
        assert report.findings["firstfit"] == report.findings["recursion"]
        assert report.findings["firstfit"] == "727/4"
        assert report.findings["jump"] == "1487/8"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_semantics_findings_match_hypercube_sum(self, n, k):
        findings = compare_naples_semantics(n, k).findings
        for semantics in NaplesSemantics:
            firstfit = semantics is FIRSTFIT
            want = sum(
                naive_prob_at(t, HALF, "naples", k, firstfit) for t in all_tuples(n)
            )
            assert findings[semantics.value] == str(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_direction_total_is_the_sum_of_tuple_polynomials(self, n):
        per_tuple = Poly.zero()
        for t in all_tuples(n):
            per_tuple = per_tuple + prob_random_direction(t)
        assert f"got {per_tuple}," in verify_direction_total(n).checks[0].detail
        for p in probe_points(n):
            want = sum(naive_prob_at(t, p, "direction") for t in all_tuples(n))
            assert per_tuple.evaluate(p) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_letter_step_sums_the_tuple_counts(self, n):
        every = [range(1, n + 1)] * n
        free, p, q = _POLY_FACTORS
        for rule in (_rule("direction", 0, JUMP), _rule("naples", 2, JUMP)):
            for factors in ((free, p, q), (free, q, p)):
                summed = Poly.zero()
                for t in all_tuples(n):
                    summed = summed + _success_sum(
                        [(a,) for a in t], rule, Poly.one(), factors
                    )
                assert _success_sum(every, rule, Poly.one(), factors) == summed
            if not rule[0]:
                poly = sum(map(prob_random_direction, all_tuples(n)), Poly.zero())
            else:
                poly = sum(
                    (prob_random_naples(t, 2) for t in all_tuples(n)), Poly.zero()
                )
            assert _success_sum(every, rule, Poly.one(), _POLY_FACTORS) == poly
            for point in (HALF, Fraction(1, 3), Fraction(2), Fraction(-1, 3)):
                u, v = point.numerator, point.denominator
                weight = _point_weight(every, rule, u, v)
                assert weight == v ** (n - 1) * poly.evaluate(point)

    def test_verifier_domain_errors(self):
        with pytest.raises(ValueError):
            verify_odd_census(1)
        with pytest.raises(ValueError):
            verify_odd_census(9)
        with pytest.raises(ValueError):
            verify_sandwich(0)
        with pytest.raises(ValueError):
            verify_monotonicity(1)
        with pytest.raises(ValueError):
            verify_direction_total(8)
        with pytest.raises(ValueError):
            compare_naples_semantics(7, 1)
        with pytest.raises(ValueError):
            compare_naples_semantics(3, 0)

    @pytest.mark.parametrize("n", [3.0, True])
    def test_odd_census_rejects_a_non_int_car_count(self, n):
        with pytest.raises(ValueError, match="must be an integer"):
            verify_odd_census(n)

    def test_semantics_sweep_rejects_a_non_int_car_count(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept before checking n")

        monkeypatch.setattr(census, "_point_weight", no_sweep)
        for n in (1.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                compare_naples_semantics(n, 1)

    @pytest.mark.parametrize("verifier", [verify_direction_total, verify_sandwich])
    def test_verifiers_reject_a_bool_car_count(self, verifier):
        with pytest.raises(ValueError, match="must be an integer"):
            verifier(True)
