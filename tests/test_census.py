"""Distribution census, staircase constructions, and the report verifiers."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import parkmodel
import parkmodel.census as census
from parkmodel import (
    NaplesSemantics,
    DistributionTable,
    Poly,
    RandomModel,
    StaircaseShape,
    compare_naples_semantics,
    expected_random_naples,
    full_census,
    is_staircase,
    iter_staircase_shapes,
    naples_count,
    parking_choice_count,
    parking_count,
    prob_of_model,
    prob_random_direction,
    prob_random_naples,
    shape_of,
    staircase_choice_count,
    tuple_for_numerator,
    tuple_for_odd_numerator,
    verify_direction_total,
    verify_monotonicity,
    verify_odd_census,
    verify_odd_parity,
    verify_sandwich,
)
from parkmodel.census import _census_rows, _transfer_matrices
from parkmodel.cli import main
from parkmodel.core import _line_moves, _park, _rule
from parkmodel.exact import (
    _POLY_FACTORS,
    _kronecker_point,
    _park_each,
    _point_weight,
    _success_sum,
)
from parkmodel.montecarlo import _distinct_rows, _row_multipliers

from oracles import (
    all_tuples,
    naive_choice_count,
    naive_prob_at,
    naive_replay,
    probe_points,
)

JUMP = NaplesSemantics.JUMP_BACK_THEN_FORWARD
FIRSTFIT = NaplesSemantics.FIRST_FIT_BACKWARD
HALF = Fraction(1, 2)


def _walk(steps, n, alpha):
    """The DP row a tuple ends on: census._census_rows's O(n) walk."""
    r = 0
    for inverse, a in zip(steps, alpha):
        r = int(inverse[r]) * n + a - 1
    return r


def _every_count(n, rule):
    """Every tuple's choice count off the DP, in product order."""
    steps, counts, _ = _census_rows(n, rule)
    rows = np.zeros(1, dtype=np.intp)
    for inverse in steps:
        rows = (inverse[rows][:, None] * n + np.arange(n)).ravel()
    return counts[rows]


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "k, semantics", [(1, JUMP), (2, JUMP), (2, FIRSTFIT), (3, FIRSTFIT)]
    )
    def test_matches_hypercube_census(self, n, k, semantics):
        firstfit = semantics is FIRSTFIT
        hist = Counter(naive_choice_count(t, k, firstfit) for t in all_tuples(n))
        table = full_census(n, k, semantics)
        for a, c in table.items():
            assert c == hist.get(a, 0)

    @pytest.mark.parametrize(
        "n, k, semantics",
        [
            (6, 1, JUMP),
            (6, 2, JUMP),
            (6, 2, FIRSTFIT),
            pytest.param(7, 1, JUMP, marks=pytest.mark.slow),
        ],
    )
    def test_histogram_matches_the_exact_point_carry(self, n, k, semantics):
        # The dict-per-mask point carry of exact.py shares no census code; at
        # factors (2, 1, 1) its states sum to the tuple's choice count.
        rule = _rule("naples", k, semantics)
        every = _park_each(
            n, lambda _: range(1, n + 1), _line_moves(n, rule), 1, (2, 1, 1)
        )
        expected = [sum(states.values()) for _, states in every]
        assert _every_count(n, rule).tolist() == expected
        table = full_census(n, k, semantics)
        assert table.counts == tuple(np.bincount(expected, minlength=len(table.counts)))

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

    @pytest.mark.parametrize(
        "n, k, semantics, counts",
        [
            (3, 1, "jump", (1, 2)),
            (3, 1, "jump", (0, 0, 0, 0, 0, 27)),
            (3, 1, "bogus", (-5, 2.5, 0, 0, 0)),
            (3, 1, "bogus", (0, 0, 0, 0, 27)),
            (3, 1, "jump", (-5, 2, 0, 0, 30)),
            (3, 1, "jump", (0, 2.5, 0, 0, 24.5)),
            (3, 1, "jump", (True, 0, 0, 0, 26)),
            (0, 1, "jump", ()),
            (True, 1, "jump", (0, 1)),
            (3, 0, "jump", (0, 0, 0, 0, 27)),
            (3, 1.0, "jump", (0, 0, 0, 0, 27)),
            (10**12, 1, "jump", (0, 1)),
        ],
    )
    def test_table_rejects_malformed_input(self, n, k, semantics, counts):
        with pytest.raises(ValueError):
            DistributionTable(n, k, semantics, counts)

    def test_table_stores_the_member_and_a_count_tuple(self):
        table = DistributionTable(2, 1, "firstfit", [0, 1, 3])
        assert table.semantics is FIRSTFIT
        assert table.counts == (0, 1, 3)
        assert table == DistributionTable(2, 1, FIRSTFIT, (0, 1, 3))
        assert table == full_census(2, semantics=FIRSTFIT)

    @pytest.mark.parametrize("keyword", ["threads", "allow_large"])
    def test_removed_keywords_are_refused(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            full_census(3, **{keyword: 1})

    def test_census_never_loads_numpy_random(self):
        """The census hashes rows with fixed multipliers, so a fresh
        interpreter running it never imports numpy.random."""
        child = (
            "import sys\n"
            "from parkmodel import full_census\n"
            "full_census(7)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(parkmodel.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_wider_backup_with_either_semantics(self):
        ff = full_census(4, k=2, semantics=FIRSTFIT)
        jp = full_census(4, k=2, semantics=JUMP)
        assert ff.total() == jp.total() == 4**4
        assert ff.expectation() == expected_random_naples(4, 2, HALF)
        assert ff.expectation() == Fraction(727, 4)
        assert jp.expectation() == Fraction(1487, 8)

    def test_gating(self):
        with pytest.raises(ValueError):
            full_census(10)
        with pytest.raises(ValueError):
            full_census(0)
        with pytest.raises(ValueError):
            full_census(3, k=0)

    def test_semantics_value_means_its_member(self):
        ff = full_census(4, k=2, semantics="firstfit")
        assert ff == full_census(4, k=2, semantics=FIRSTFIT)
        assert ff.semantics is FIRSTFIT
        for bad in ("first-fit", 2, None):
            with pytest.raises(ValueError):
                full_census(3, semantics=bad)

    def test_k_must_be_a_plain_int(self):
        for bad in (True, 1.5, "2", None):
            with pytest.raises(ValueError):
                full_census(4, k=bad)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [2, 3])
    def test_firstfit_marginals_match_the_recursion(self, n, k):
        table = full_census(n, k, FIRSTFIT)
        assert table.count_for(table.denominator) == parking_count(n)
        assert table.count_for(0) == n**n - naples_count(n, k)
        assert table.expectation() == expected_random_naples(n, k, HALF)

    def test_self_checks_run_for_firstfit_at_k_two(self, monkeypatch):
        def shifted(n, rule):
            # One row of count 1 for every tuple: right total, wrong all else.
            return [], np.ones(1, dtype=np.int64), np.full(1, float(n**n))

        monkeypatch.setattr(census, "_census_rows", shifted)
        with pytest.raises(RuntimeError):
            full_census(4, 2, FIRSTFIT)
        assert full_census(4, 2, JUMP).total() == 4**4

    def test_eight_car_census_passes_its_self_checks(self):
        table = full_census(8)
        assert table.total() == 8**8
        assert table.count_for(128) == parking_count(8)
        assert table.expectation() == expected_random_naples(8, 1, HALF)

    def test_nine_car_census_passes_its_self_checks(self):
        # full_census raises RuntimeError unless the total, the full and zero
        # counts and the expectation all match the recursions.
        for k, semantics in ((1, JUMP), (2, FIRSTFIT), (3, FIRSTFIT)):
            table = full_census(9, k, semantics)
            assert table.total() == 9**9
            assert table.count_for(256) == parking_count(9)
            assert table.count_for(0) == 9**9 - naples_count(9, k)
            assert table.expectation() == expected_random_naples(9, k, HALF)


class TestTransferKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("semantics", [JUMP, FIRSTFIT])
    def test_every_tuple_matches_the_hypercube_count(self, n, k, semantics):
        steps, counts, weights = _census_rows(n, _rule("naples", k, semantics))
        firstfit = semantics is FIRSTFIT
        walked = Counter()
        assert counts.dtype == np.int64
        for t in all_tuples(n):
            r = _walk(steps, n, t)
            assert counts[r] == naive_choice_count(t, k, firstfit)
            walked[r] += 1
        # Each row's weight is the number of tuples whose walk ends on it.
        assert weights.tolist() == [walked[r] for r in range(len(counts))]

    def test_float32_exactness_bound_is_enforced_before_the_automaton(
        self, monkeypatch
    ):
        built = []

        def automaton(*args):
            built.append(args[0])
            raise LookupError("automaton reached")

        monkeypatch.setattr("parkmodel.montecarlo._all_spot_automaton", automaton)
        with pytest.raises(ValueError, match="float32"):
            _transfer_matrices(26, _rule("naples", 1, JUMP))
        assert built == []
        with pytest.raises(LookupError, match="automaton reached"):
            _transfer_matrices(25, _rule("naples", 1, JUMP))
        assert built == [25]


def _void_unique(states):
    """The merge by np.unique over each row's bytes as one np.void key."""
    keys = states.view(np.dtype((np.void, 4 * states.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


FLIP_RULES = {
    "direction": ("direction", 0, "jump"),
    "k1-jump": ("naples", 1, "jump"),
    "k2-jump": ("naples", 2, "jump"),
    "k2-firstfit": ("naples", 2, "firstfit"),
}


def _naive_flips(n, model, k, semantics):
    """(checked, violations) of census._flip_counts by replaying every vector.

    For each tuple and each coin vector that parks, every coin at 1
    (forward) is turned to 0 (backward), one at a time, and the vector is
    replayed again by oracles.naive_replay.
    """
    checked = violations = 0
    firstfit = semantics == "firstfit"
    for prefs in all_tuples(n):
        parks = {
            coins: naive_replay(prefs, coins, model, k, firstfit)
            for coins in product((0, 1), repeat=n - 1)
        }
        for coins, ok in parks.items():
            for i in range(n - 1):
                if ok and coins[i]:
                    checked += 1
                    violations += not parks[coins[:i] + (0,) + coins[i + 1 :]]
    return checked, violations


class TestFlipCounts:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", sorted(FLIP_RULES))
    def test_matches_the_replay_oracle(self, n, name):
        rule = FLIP_RULES[name]
        assert census._flip_counts(n, _rule(*rule)) == _naive_flips(n, *rule)

    @pytest.mark.parametrize(
        "name, n, counts",
        [("k2-jump", 6, (2043486, 82)), ("k2-firstfit", 6, (1979704, 0))],
    )
    def test_pinned_counts(self, name, n, counts):
        assert census._flip_counts(n, _rule(*FLIP_RULES[name])) == counts

    def test_pairs_merge_only_through_the_checked_merge(self, monkeypatch):
        monkeypatch.setattr(
            "parkmodel.montecarlo._row_multipliers",
            lambda width: np.zeros(width, dtype=np.uint64),
        )
        with pytest.raises(RuntimeError, match="^unequal rows share a hash key$"):
            census._flip_counts(4, _rule(*FLIP_RULES["k1-jump"]))


class TestDistinctRows:
    @pytest.mark.parametrize("width", [1, 7, 35, 126])
    def test_same_partition_as_void_unique(self, width):
        rng = np.random.default_rng(width)
        distinct = rng.permutation(np.unique(rng.integers(0, 60, (400, width)), axis=0))
        distinct = distinct[:50].astype(np.float32)
        states = distinct[rng.integers(0, 50, 2000)]
        first, inverse = _distinct_rows(states.view(np.uint32), _row_multipliers(126))
        old_first, old_inverse = _void_unique(states)
        assert len(first) == len(old_first) == 50
        # One group per old group: the pairs of labels number the groups.
        assert len(set(zip(inverse.tolist(), old_inverse.tolist()))) == len(first)
        assert np.array_equal(states[first[inverse]], states)
        assert inverse.dtype == np.intp

    def test_multipliers_are_fixed_and_odd(self):
        mult = _row_multipliers(126)
        assert mult.dtype == np.uint64
        assert (mult & np.uint64(1)).all()
        assert len(set(mult.tolist())) == 126
        assert np.array_equal(_row_multipliers(7), mult[:7])

    def test_multipliers_hold_no_doubling_relation(self):
        # No 2^s (m_i + m_j) = m_k + m_l mod 2^64, s = 0..3, among the first
        # 462: at s = 0 the pair sums are distinct.
        mult = _row_multipliers(462)
        i, j = np.triu_indices(len(mult))
        sums = mult[i] + mult[j]
        assert len(np.unique(sums)) == len(sums)
        for s in (1, 2, 3):
            assert len(np.intersect1d(sums << np.uint64(s), sums)) == 0

    def test_a_doubling_row_pair_merges_into_two_groups(self):
        # Splitmix64 of 1..104 gave 2(m_45 + m_51) = m_91 + m_103 mod 2^59,
        # so these two rows shared a key and the merge raised.
        rows = np.zeros((2, 104), dtype=np.uint32)
        rows[0, [45, 51]] = 64
        rows[1, [91, 103]] = 32
        first, inverse = _distinct_rows(rows, _row_multipliers(104))
        assert len(first) == 2
        assert sorted(inverse.tolist()) == [0, 1]

    def test_a_key_collision_raises(self):
        states = np.array([[1, 0], [0, 1], [1, 0]], dtype=np.float32).view(np.uint32)
        zeros = np.zeros(2, dtype=np.uint64)
        with pytest.raises(RuntimeError, match="hash key"):
            _distinct_rows(states, zeros)
        first, inverse = _distinct_rows(states[[0, 2]], zeros)
        assert len(first) == 1 and inverse.tolist() == [0, 0]

    def test_census_raises_when_every_key_collides(self, monkeypatch):
        monkeypatch.setattr(
            "parkmodel.montecarlo._row_multipliers",
            lambda width: np.zeros(width, dtype=np.uint64),
        )
        with pytest.raises(RuntimeError, match="hash key"):
            full_census(4)

    @pytest.mark.parametrize(
        "n, digest",
        [
            (8, "872d838dcf5262ac84b7bbcec34fa3d4cd353a20789182c752fab6932fbe62da"),
            (9, "7e4427528fb2770a8a8521a06eb54645763859d5e8e1b56fbcce02474da1c9f3"),
        ],
    )
    def test_jump_at_k_two_is_pinned(self, n, digest):
        # No recursion self-check covers the jump reading at k >= 2; the
        # digests of repr(counts) were computed with the np.void merge.
        counts = full_census(n, 2, JUMP).counts
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("n", range(2, 11))
    def test_shape_order_is_the_recursive_preorder(self, n):
        def preorder(rest, acc):
            yield acc + (rest,)
            for part in range(1, rest - 1):
                yield from preorder(rest - part, acc + (part,))

        got = [shape.multiplicities for shape in iter_staircase_shapes(n)]
        assert got == list(preorder(n, ()))

    def test_deep_shapes_need_no_recursion(self):
        # Item j < n - 1 is j blocks of one car under a top block of n - j;
        # a generator nested per block would pass the recursion limit here.
        shape = next(islice(iter_staircase_shapes(1200), 1150, None))
        assert shape.multiplicities == (1,) * 1150 + (50,)

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


class TestParityCensus:
    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize(
        "rule",
        [("naples", 1, JUMP), ("naples", 2, JUMP), ("naples", 2, FIRSTFIT),
         ("direction", 0, JUMP)],
    )
    def test_tally_matches_the_float32_census(self, n, rule):
        # Odd total off the histogram; each staircase's count off its row.
        rule = _rule(*rule)
        steps, counts, weights = _census_rows(n, rule)
        odd_total = int(weights[counts & 1 == 1].sum())
        stairs = [counts[_walk(steps, n, s.expand())] for s in iter_staircase_shapes(n)]
        odd_stairs = sum(int(g) & 1 for g in stairs)
        assert census._parity_census(n, rule) == (
            odd_stairs, len(stairs) - odd_stairs, odd_total - odd_stairs
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_tally_matches_the_oracle(self, n):
        tally = [0, 0, 0]
        for t in all_tuples(n):
            g = naive_choice_count(t, 1, False)
            if is_staircase(t):
                tally[0 if g & 1 else 1] += 1
            elif g & 1:
                tally[2] += 1
        assert census._parity_census(n, _rule("naples", 1, JUMP)) == tuple(tally)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_staircase_walk_counts_every_staircase(self, n):
        # The walk verify_odd_census runs: staircase letters, steps (2, 1, 1).
        moves = _line_moves(n, _rule("naples", 1, JUMP))
        walked = [
            (alpha, sum(states.values()))
            for alpha, states in _park_each(
                n,
                lambda s: census._stair_letters(n, len(s), s[-1] if s else 0),
                moves,
                1,
                (2, 1, 1),
            )
        ]
        assert len(walked) == 1 << (n - 2)
        assert {alpha for alpha, _ in walked} == {
            s.expand() for s in iter_staircase_shapes(n)
        }
        for alpha, g in walked:
            assert g == parking_choice_count(alpha)

    @pytest.mark.parametrize(
        "n", [*range(2, 13), 30, pytest.param(100, marks=pytest.mark.slow)]
    )
    def test_odd_parity_passes_to_its_cap(self, n):
        report = verify_odd_parity(n)
        assert report.passed
        assert report.name == "odd-parity" and report.findings is None
        assert [c.detail for c in report.checks[:2]] == [
            f"{n}^{n} tuples swept, 0 violations",
            f"found {1 << (n - 2)}, expected {1 << (n - 2)}",
        ]
        drawn = f"all {1 << (n - 2)}" if n <= 8 else "64 staircases drawn at seed 2021"
        assert report.checks[2].detail.startswith(drawn)

    @pytest.mark.parametrize("n", [5, 20])
    @pytest.mark.parametrize("count", ["staircase_choice_count", "parking_choice_count"])
    def test_odd_parity_catches_a_wrong_count(self, monkeypatch, n, count):
        monkeypatch.setattr(census, count, lambda alpha: 0)
        report = verify_odd_parity(n)
        assert [c.passed for c in report.checks] == [True, True, False]
        drawn = min(1 << (n - 2), 64)
        assert report.checks[2].detail.endswith(f", {drawn} mismatching")


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

    def test_odd_census_nine_cars(self):
        report = verify_odd_census(9)
        assert report.passed
        assert list(report.findings) == list(range(1, 256, 2))
        for g, alpha in report.findings.items():
            assert alpha == tuple_for_odd_numerator(9, (g + 1) // 2)

    def test_odd_census_sixteen_cars(self):
        report = verify_odd_census(16)
        assert report.passed
        assert report.checks[0].detail == f"{16**16} tuples swept, 0 violations"
        assert list(report.findings) == list(range(1, 1 << 15, 2))
        for g, alpha in report.findings.items():
            assert alpha == census._staircase_for_odd(16, (g + 1) // 2)

    @pytest.mark.parametrize("holds_staircase", [False, True])
    def test_odd_census_catches_a_planted_odd_count(self, monkeypatch, holds_staircase):
        # A car blocked at spot a of the lot occ loses one landing: with
        # spots 1..4 taken and a = 3 the backward one, which turns 4 other
        # tuples odd; with spot 2 taken and a = 2 the forward one, which
        # turns the staircase (2, 2, 2, 2, 2) even. Both verifiers must
        # count every flip that a brute force over core._park counts.
        n = 5
        occ0, a0, lost = (0b10, 2, 0) if holds_staircase else (0b1111, 3, 1)
        line_moves = census._line_moves

        def planted(n, rule):
            moves = line_moves(n, rule)

            def patched(occ, a):
                spots = moves(occ, a)
                if (occ, a) == (occ0, a0):
                    spots = spots[:lost] + (0,) + spots[lost + 1 :]
                return spots

            return patched

        moves = planted(n, _rule("naples", 1, JUMP))
        even_stairs = odd_others = 0
        for t in all_tuples(n):
            g = sum(len(_park(t, beta, moves)) == n for beta in range(1 << (n - 1)))
            if is_staircase(t):
                even_stairs += not g & 1
            else:
                odd_others += g & 1
        assert bool(even_stairs) == holds_staircase != bool(odd_others)
        monkeypatch.setattr(census, "_line_moves", planted)
        violations = even_stairs + odd_others
        for verifier, swept in ((verify_odd_census, 3125), (verify_odd_parity, "5^5")):
            report = verifier(n)
            parity = report.checks[0]
            assert parity.label == "odd count iff staircase"
            assert not parity.passed
            assert parity.detail == f"{swept} tuples swept, {violations} violations"
            assert not report.passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_staircase_shapes_expand_to_every_staircase(self, n):
        # The odd census finds staircases only through the shapes, so its
        # parity row is sound only if they expand to every staircase tuple.
        expanded = {s.expand() for s in iter_staircase_shapes(n)}
        assert expanded == {t for t in all_tuples(n) if is_staircase(t)}

    def test_sandwich(self):
        report = verify_sandwich(10)
        assert report.passed
        assert len(report.checks) == 10
        assert report.findings[4]["expected"] == "653/4"

    def test_monotonicity_exhaustive(self):
        assert verify_monotonicity(4).passed
        report = verify_monotonicity(7)
        assert report.passed
        assert report.checks[0].detail == (
            "exhaustive: 66857896 single-bit flips of successful vectors"
        )

    @pytest.mark.parametrize(
        "n, message",
        [
            (1, "the monotonicity sweep supports 2 <= n <= 12, got 1"),
            (13, "the monotonicity sweep supports 2 <= n <= 12, got 13"),
        ],
    )
    def test_monotonicity_rejects_n_outside_the_sweep(self, n, message):
        with pytest.raises(ValueError, match=message):
            verify_monotonicity(n)

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
    def test_direction_total_integer_is_the_tuple_polynomials_at_the_point(self, n):
        # p is the forward branch: each tuple's point carry at X is its
        # polynomial read at X, and the verifier's integer is their sum.
        x = _kronecker_point(n)
        rule = _rule(RandomModel.DIRECTION, 0, JUMP)
        total = 0
        for t in all_tuples(n):
            at_x = prob_of_model(t, RandomModel.DIRECTION).evaluate(x)
            assert _point_weight([(a,) for a in t], rule, x, 1) == at_x
            total += at_x
        detail = verify_direction_total(n).checks[0].detail
        assert detail == f"n={n}: got {total}, expected {(n + 1) ** (n - 1)}"

    def test_a_sum_that_is_not_constant_fails_theorem2(self, monkeypatch):
        point_weight = census._point_weight

        def plus_p(cars, rule, u, v):
            # The planted sum is the true one plus p, read at p = u/v = X.
            return point_weight(cars, rule, u, v) + u

        monkeypatch.setattr(census, "_point_weight", plus_p)
        result = CliRunner().invoke(main, ["verify", "--check", "theorem2", "--n", "3"])
        assert result.exit_code == 1
        assert f"got {16 + _kronecker_point(3)}, expected 16" in result.stdout
        assert "direction-total: FAILED" in result.stdout

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
            verify_odd_census(17)
        with pytest.raises(ValueError):
            verify_odd_parity(1)
        with pytest.raises(ValueError):
            verify_odd_parity(101)
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
        with pytest.raises(ValueError, match="must be an integer"):
            verify_odd_parity(n)

    def test_semantics_sweep_rejects_a_non_int_car_count(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept before checking n")

        monkeypatch.setattr(census, "_point_weight", no_sweep)
        for n in (1.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                compare_naples_semantics(n, 1)

    @pytest.mark.parametrize(
        "verifier", [verify_direction_total, verify_sandwich, verify_monotonicity]
    )
    def test_verifiers_reject_a_bool_car_count(self, verifier):
        with pytest.raises(ValueError, match="must be an integer"):
            verifier(True)
