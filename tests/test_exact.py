"""Exact probability polynomials against full hypercube sums."""

import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkmodel import (
    NaplesSemantics,
    Poly,
    RandomModel,
    park_forward,
    park_naples_det,
    parking_choice_count,
    parks_under_choices,
    StaircaseShape,
    is_staircase,
    iter_staircase_shapes,
    prob_of_model,
    prob_of_model_at,
    prob_random_direction,
    prob_random_naples,
    staircase_choice_count,
)
from parkmodel.census import _stair_letters
from parkmodel.circular import _ring_moves
from parkmodel.core import _line_moves, _rule
from parkmodel.exact import (
    _POLY_FACTORS,
    _park_all,
    _park_each,
    _success_sum,
)

from oracles import all_tuples, naive_choice_count, naive_prob_at, probe_points

JUMP = NaplesSemantics.JUMP_BACK_THEN_FORWARD
FIRSTFIT = NaplesSemantics.FIRST_FIT_BACKWARD
HALF = Fraction(1, 2)


class TestPolyAlgebra:
    def test_canonical_form_strips_trailing_zeros(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly((0, 0)).coeffs == ()
        assert Poly((0, 0)) == Poly.zero()
        assert Poly.constant(0) == Poly.zero()
        assert Poly.constant(5).coeffs == (5,)

    def test_list_coefficients_are_stored_as_a_tuple(self):
        assert Poly([1, 2]) == Poly((1, 2))
        assert hash(Poly([1, 2])) == hash(Poly((1, 2)))
        assert Poly([1, 2]).coeffs == (1, 2)

    def test_int_factor_scales(self):
        a = Poly((1, -2, 3))
        assert a * 3 == a.scale(3) == Poly((3, -6, 9))
        assert a * 0 == Poly.zero()
        assert a * -1 == -a
        assert a * 1 is a
        assert a.scale(1) is a

    def test_degree_convention(self):
        assert Poly.zero().degree == -1
        assert Poly.one().degree == 0
        assert Poly((0, 2, -1)).degree == 2

    def test_ring_identities(self):
        a = Poly((1, -2, 3))
        b = Poly((0, 4))
        assert a + b == Poly((1, 2, 3))
        assert a - a == Poly.zero()
        assert a * Poly.one() == a
        assert a * Poly.zero() == Poly.zero()
        assert a * b == Poly((0, 4, -8, 12))
        assert a.scale(-1) == -a
        assert (a + b) * b == a * b + b * b

    def test_evaluate_is_exact(self):
        poly = Poly((0, 2, -1))
        assert poly.evaluate(HALF) == Fraction(3, 4)
        assert poly.evaluate(Fraction(1, 3)) == Fraction(5, 9)
        assert poly.evaluate(0) == 0
        assert poly.evaluate(1) == 1

    def test_evaluate_rejects_floats(self):
        with pytest.raises(TypeError):
            Poly((0, 1)).evaluate(0.5)
        with pytest.raises(TypeError):
            Poly((0, 1)).evaluate("1/2")

    @pytest.mark.parametrize(
        "coeffs", [(0.5,), (1, Fraction(1, 2)), ("1",), (True, 2), [1, False]]
    )
    def test_non_int_coefficients_are_rejected(self, coeffs):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            Poly(coeffs)

    def test_non_iterable_coefficients_are_rejected(self):
        with pytest.raises(ValueError, match="coefficients must be a sequence"):
            Poly(5)

    @pytest.mark.parametrize("c", [0.5, 1.0, True])
    def test_non_int_scale_factor_is_rejected(self, c):
        with pytest.raises(ValueError, match="scale factor must be an integer"):
            Poly((1, 2)).scale(c)

    @pytest.mark.parametrize("c", [0.0, False])
    def test_non_int_constant_is_rejected(self, c):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            Poly.constant(c)

    @pytest.mark.parametrize(
        "op",
        [lambda a: a + 1, lambda a: a - 2, lambda a: a * 1.5, lambda a: a * True],
        ids=["add-int", "sub-int", "mul-float", "mul-bool"],
    )
    def test_foreign_operands_raise_type_error(self, op):
        with pytest.raises(TypeError):
            op(Poly((1,)))

    def test_str_rendering(self):
        assert str(Poly.zero()) == "0"
        assert str(Poly.constant(3)) == "3"
        assert str(Poly((0, 2, -1))) == "2*p - p^2"
        assert str(Poly((1, 0, 1))) == "1 + p^2"
        assert str(Poly((0, -1))) == "-p"


class TestModelValues:
    def test_values_mean_their_members(self):
        assert prob_of_model((2, 2, 2), "direction") == Poly((0, 2, -2))
        assert prob_of_model((2, 2, 2), "naples") == Poly((0, 2, -1))
        prefs = (3, 3, 2)
        assert prob_of_model(prefs, "naples", 2, "firstfit") == prob_random_naples(
            prefs, 2, FIRSTFIT
        )
        assert prob_random_naples(prefs, 2, "firstfit") != prob_random_naples(
            prefs, 2, JUMP
        )

    @pytest.mark.parametrize("model,semantics", [(7, JUMP), ("Naples", JUMP),
                                                 (RandomModel.DIRECTION, 1)])
    def test_unknown_values_are_rejected(self, model, semantics):
        with pytest.raises(ValueError):
            prob_of_model((2, 2, 2), model, 1, semantics)

    def test_unknown_semantics_in_naples_walks(self):
        with pytest.raises(ValueError):
            prob_random_naples((2, 2, 2), 2, "first-fit")
        with pytest.raises(ValueError):
            parking_choice_count((2, 2, 2), 2, None)


class TestKnownPolynomials:
    def test_naples_three_in_a_row(self):
        assert prob_random_naples((2, 2, 2)) == Poly((0, 2, -1))
        assert prob_random_naples((3, 3, 3)) == Poly.zero()
        assert prob_random_naples((3, 3, 2)) == Poly((0, 0, 1))

    def test_direction_examples(self):
        assert prob_random_direction((2, 2)) == Poly((1, -1))
        assert prob_random_direction((1, 2, 2, 1)) == Poly((0, 0, 1))
        assert prob_random_direction((2, 2, 2)) == Poly((0, 2, -2))

    def test_permutations_always_park(self):
        for prefs in ((1,), (2, 1), (3, 1, 2), (2, 4, 1, 3)):
            assert prob_random_direction(prefs) == Poly.one()
            assert prob_random_naples(prefs) == Poly.one()

    def test_wider_backup_window_helps(self):
        assert prob_random_naples((3, 3, 3), k=1) == Poly.zero()
        assert prob_random_naples((3, 3, 3), k=2) != Poly.zero()


class TestEndpointCollapse:
    """At p = 0 and p = 1 each model degenerates to a deterministic walk."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_direction_endpoints(self, n):
        for t in all_tuples(n):
            poly = prob_random_direction(t)
            assert poly.evaluate(1) == int(park_forward(t).parked_all)
            all_backward = parks_under_choices(t, 0, RandomModel.DIRECTION)
            assert poly.evaluate(0) == int(all_backward)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("semantics", [JUMP, FIRSTFIT])
    def test_naples_endpoints(self, n, k, semantics):
        for t in all_tuples(n):
            poly = prob_random_naples(t, k, semantics)
            det = park_naples_det(t, k, semantics).parked_all
            assert poly.evaluate(1) == int(det)
            assert poly.evaluate(0) == int(park_forward(t).parked_all)


class TestCharacterizations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_naples_certain_iff_forward_walk_parks(self, n):
        for t in all_tuples(n):
            certain = prob_random_naples(t) == Poly.one()
            assert certain == park_forward(t).parked_all

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_naples_impossible_iff_det_walk_fails(self, n):
        for t in all_tuples(n):
            impossible = prob_random_naples(t) == Poly.zero()
            assert impossible == (not park_naples_det(t, 1).parked_all)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_direction_certain_iff_permutation(self, n):
        for t in all_tuples(n):
            is_perm = sorted(t) == list(range(1, n + 1))
            poly = prob_random_direction(t)
            assert (poly == Poly.one()) == is_perm
            assert poly != Poly.zero()
            assert (0 < poly.evaluate(HALF) < 1) == (not is_perm)


class TestShiftIdentity:
    """Prepending a car on spot 1 and shifting everything up changes nothing.

    The new car parks on spot 1 immediately, so every later conflict plays
    out exactly as before, one spot to the right.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_polynomials_are_invariant(self, n):
        for t in all_tuples(n):
            shifted = (1,) + tuple(a + 1 for a in t)
            assert prob_random_direction(shifted) == prob_random_direction(t)
            for k in (1, 2):
                for semantics in (JUMP, FIRSTFIT):
                    assert prob_random_naples(
                        shifted, k, semantics
                    ) == prob_random_naples(t, k, semantics)


class TestChoiceCount:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("semantics", [JUMP, FIRSTFIT])
    def test_matches_hypercube_count(self, n, k, semantics):
        firstfit = semantics is FIRSTFIT
        for t in all_tuples(n):
            got = parking_choice_count(t, k, semantics)
            assert got == naive_choice_count(t, k, firstfit)
            assert 0 <= got <= 1 << (n - 1)

    def test_four_hundred_car_staircase(self):
        shape = StaircaseShape((1, 2, 1) * 99 + (4,))
        assert shape.n == 400
        alpha = shape.expand()
        assert parking_choice_count(alpha) == staircase_choice_count(shape)

    def test_known_counts(self):
        assert parking_choice_count((2, 2, 2)) == 3
        assert parking_choice_count((3, 3, 3)) == 0
        assert parking_choice_count((1, 2, 3)) == 4
        assert parking_choice_count((2, 2)) == 1


class TestParkEach:
    """The depth-first sweep yields each tuple's own states, prefixes shared."""

    FREE, P, Q = _POLY_FACTORS
    RULES = [
        ("direction", 0, JUMP),
        ("naples", 1, JUMP),
        ("naples", 2, FIRSTFIT),
    ]

    @staticmethod
    def _assert_each_matches_park_all(cars, moves, one, steps):
        seen = []
        for prefs, states in _park_each(
            len(cars), lambda s: cars[len(s)], moves, one, steps
        ):
            seen.append(prefs)
            assert states == _park_all([(a,) for a in prefs], moves, one, steps)
        assert seen == list(product(*cars))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ring_moves_every_tuple_once_in_order(self, n):
        ring = n + 1
        self._assert_each_matches_park_all(
            [range(1, ring + 1)] * n, _ring_moves(ring), Poly.one(), _POLY_FACTORS
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("model, k, semantics", RULES)
    def test_line_moves_every_tuple_once_in_order(self, n, model, k, semantics):
        rule = _rule(model, k, semantics)
        moves = _line_moves(n, rule)
        # The p-branch is forward under direction and backward under Naples.
        steps = (self.FREE, self.Q, self.P) if rule[0] else _POLY_FACTORS
        every = [range(1, n + 1)] * n
        self._assert_each_matches_park_all(every, moves, Poly.one(), steps)
        self._assert_each_matches_park_all(every, moves, 1, (3, 1, 2))
        for prefs, states in _park_each(
            n, lambda s: every[len(s)], moves, Poly.one(), steps
        ):
            want = prob_of_model(prefs, model, k, semantics)
            assert sum(states.values(), Poly.zero()) == want

    @pytest.mark.parametrize("n", range(2, 9))
    def test_letters_that_depend_on_the_prefix(self, n):
        # Staircase letters: the next car's spots follow the prefix's last one.
        moves = _line_moves(n, _rule("naples", 1, JUMP))

        def letters(prefix):
            return _stair_letters(n, len(prefix), prefix[-1] if prefix else 0)

        by_poly = _park_each(n, letters, moves, Poly.one(), _POLY_FACTORS)
        by_int = _park_each(n, letters, moves, 1, (2, 1, 1))
        seen = []
        for (prefs, poly_states), (int_prefs, int_states) in zip(
            by_poly, by_int, strict=True
        ):
            assert int_prefs == prefs and is_staircase(prefs)
            cars = [(a,) for a in prefs]
            assert poly_states == _park_all(cars, moves, Poly.one(), _POLY_FACTORS)
            assert int_states == _park_all(cars, moves, 1, (2, 1, 1))
            assert sum(int_states.values()) == parking_choice_count(prefs)
            seen.append(prefs)
        assert sorted(seen) == sorted(s.expand() for s in iter_staircase_shapes(n))
        assert len(set(seen)) == len(seen) == 1 << (n - 2)

    def test_uneven_letter_sets(self):
        cars = [(1, 3), (2,), (3, 1, 2), (4, 2)]
        rule = _rule("direction", 0, JUMP)
        moves = _line_moves(4, rule)
        self._assert_each_matches_park_all(cars, moves, Poly.one(), _POLY_FACTORS)
        total = Poly.zero()
        for _, states in _park_each(
            4, lambda s: cars[len(s)], moves, Poly.one(), _POLY_FACTORS
        ):
            total = total + sum(states.values(), Poly.zero())
        assert total == _success_sum(cars, rule, Poly.one(), _POLY_FACTORS)


class TestLongTuples:
    """Closed forms at lengths whose 2^(n-1) choice vectors cannot be listed.

    All cars on spot 1 fill the lot left to right: under Naples every
    blocked car parks on either branch, and under direction each of the 59
    blocked cars must flip forward.
    """

    def test_sixty_cars_on_spot_one(self):
        start = time.perf_counter()
        assert prob_random_naples((1,) * 60) == Poly.one()
        assert prob_random_naples((1,) * 60, 3, FIRSTFIT) == Poly.one()
        assert prob_random_direction((1,) * 60) == Poly((0,) * 59 + (1,))
        assert parking_choice_count((1,) * 60) == 1 << 59
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_closed_forms_match_the_oracle_on_short_runs(self, n):
        ones = (1,) * n
        for p in probe_points(n):
            assert naive_prob_at(ones, p, "naples") == 1
            assert naive_prob_at(ones, p, "naples", 3, True) == 1
            assert naive_prob_at(ones, p, "direction") == p ** (n - 1)
            assert prob_random_direction(ones).evaluate(p) == p ** (n - 1)


@st.composite
def model_cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    prefs = tuple(draw(st.integers(1, n)) for _ in range(n))
    model = draw(st.sampled_from(list(RandomModel)))
    k = draw(st.integers(1, 3))
    semantics = draw(st.sampled_from(list(NaplesSemantics)))
    return prefs, model, k, semantics


@given(model_cases())
@settings(max_examples=150, deadline=None)
def test_polynomial_matches_hypercube_sum(case):
    """Dual route: occupancy-state polynomial vs plain sum over all coin vectors.

    Checking agreement at deg + 1 distinct rationals pins the polynomials
    down completely.
    """
    prefs, model, k, semantics = case
    poly = prob_of_model(prefs, model, k, semantics)
    assert poly.degree <= len(prefs) - 1
    for p in probe_points(len(prefs)):
        want = naive_prob_at(
            prefs, p, model.value, k, semantics is FIRSTFIT
        )
        assert poly.evaluate(p) == want


@given(model_cases())
@settings(max_examples=100, deadline=None)
def test_probability_stays_in_unit_interval(case):
    prefs, model, k, semantics = case
    poly = prob_of_model(prefs, model, k, semantics)
    for p in probe_points(len(prefs)):
        assert 0 <= poly.evaluate(p) <= 1


@given(model_cases())
@settings(max_examples=150, deadline=None)
def test_point_step_matches_the_polynomial_and_the_hypercube_sum(case):
    """prob_of_model_at runs the point step; any rational p is accepted."""
    prefs, model, k, semantics = case
    poly = prob_of_model(prefs, model, k, semantics)
    for p in probe_points(len(prefs)) + [Fraction(2), Fraction(-1, 3)]:
        got = prob_of_model_at(prefs, model, p, k, semantics)
        assert got == poly.evaluate(p)
        assert got == naive_prob_at(prefs, p, model.value, k, semantics is FIRSTFIT)


def test_point_step_validates_like_the_polynomial():
    with pytest.raises(TypeError):
        prob_of_model_at((1, 1), RandomModel.NAPLES, 0.5)
    with pytest.raises(ValueError):
        prob_of_model_at((1, 3), RandomModel.NAPLES, HALF)
    with pytest.raises(ValueError):
        prob_of_model_at((1, 1), RandomModel.NAPLES, HALF, k=-1)
    with pytest.raises(ValueError, match="backward allowance k must be >= 0"):
        prob_of_model_at((2, 2), "direction", 1, k=-1)
