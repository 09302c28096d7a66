"""Deterministic parking walks checked against plain list-scan replays."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parkmodel
from parkmodel import (
    NaplesSemantics,
    RandomModel,
    estimate_expected_total,
    estimate_prob,
    naples_count,
    park_forward,
    park_naples_det,
    park_with_choices,
    parking_count,
    parks_under_choices,
    prob_of_model,
    prob_of_model_at,
)
from parkmodel.core import _backward_spot, _highest_free_upto, _lowest_free_from

from oracles import all_tuples, naive_replay

JUMP = NaplesSemantics.JUMP_BACK_THEN_FORWARD
FIRSTFIT = NaplesSemantics.FIRST_FIT_BACKWARD


def coins_of(beta: int, n: int) -> tuple:
    return tuple(beta >> j & 1 for j in range(max(n - 1, 0)))


class TestForwardWalk:
    def test_known_assignments(self):
        assert park_forward((1, 2, 3)).assignment == (1, 2, 3)
        assert park_forward((1, 1, 1)).assignment == (1, 2, 3)
        assert park_forward((3, 1, 2)).assignment == (3, 1, 2)
        assert park_forward((2, 1, 2)).assignment == (2, 1, 3)

    def test_failure_reports_first_stuck_car(self):
        r = park_forward((2, 2, 2))
        assert not r.parked_all
        assert r.assignment is None
        assert r.first_failed_car == 3
        assert park_forward((3, 3, 1)).first_failed_car == 2

    def test_single_car(self):
        assert park_forward((1,)).assignment == (1,)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_success_count_matches_closed_form(self, n):
        got = sum(park_forward(t).parked_all for t in all_tuples(n))
        assert got == parking_count(n)


class TestNaplesWalk:
    def test_one_step_backup_rescues_known_tuple(self):
        r = park_naples_det((2, 2, 2), k=1)
        assert r.assignment == (2, 1, 3)

    def test_backup_window_too_small(self):
        r = park_naples_det((3, 3, 3), k=1)
        assert not r.parked_all
        assert r.first_failed_car == 3

    def test_semantics_diverge_at_k2(self):
        assert park_naples_det((3, 3, 3), 2, JUMP).assignment == (3, 1, 2)
        assert park_naples_det((3, 3, 3), 2, FIRSTFIT).assignment == (3, 2, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_k0_degenerates_to_forward_walk(self, n):
        for t in all_tuples(n):
            assert park_naples_det(t, 0) == park_forward(t)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_semantics_coincide_at_k1(self, n):
        for t in all_tuples(n):
            assert park_naples_det(t, 1, JUMP) == park_naples_det(t, 1, FIRSTFIT)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_firstfit_count_matches_recursion(self, n, k):
        got = sum(
            park_naples_det(t, k, FIRSTFIT).parked_all for t in all_tuples(n)
        )
        assert got == naples_count(n, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("semantics", [JUMP, FIRSTFIT])
    def test_forward_success_is_preserved(self, n, semantics):
        for k in (1, 2):
            for t in all_tuples(n):
                if park_forward(t).parked_all:
                    assert park_naples_det(t, k, semantics).parked_all


class TestChoiceReplay:
    def test_bit_convention_on_three_cars(self):
        prefs = (2, 2, 2)
        naples = RandomModel.NAPLES
        assert park_with_choices(prefs, 0b00, naples).assignment == (2, 1, 3)
        assert park_with_choices(prefs, 0b01, naples).assignment == (2, 3, 1)
        assert park_with_choices(prefs, 0b10, naples).assignment == (2, 1, 3)
        assert not park_with_choices(prefs, 0b11, naples).parked_all

    def test_direction_backward_fails_below_first_spot(self):
        direction = RandomModel.DIRECTION
        r = park_with_choices((2, 2, 2), 0b00, direction)
        assert not r.parked_all
        assert r.first_failed_car == 3
        assert park_with_choices((2, 2, 2), 0b10, direction).assignment == (
            2,
            1,
            3,
        )

    def test_unconsulted_bits_are_ignored(self):
        for beta in range(4):
            r = park_with_choices((1, 2, 3), beta, RandomModel.NAPLES)
            assert r.assignment == (1, 2, 3)
        base = parks_under_choices((1, 1, 3), 0b00, RandomModel.NAPLES)
        assert parks_under_choices((1, 1, 3), 0b10, RandomModel.NAPLES) == base

    def test_all_forward_replay_equals_forward_walk(self):
        for n in (2, 3, 4):
            full = (1 << (n - 1)) - 1
            for t in all_tuples(n):
                for model in RandomModel:
                    got = park_with_choices(t, full, model)
                    assert got == park_forward(t)

    def test_all_backward_naples_replay_equals_det_walk(self):
        for n in (2, 3, 4):
            for k in (1, 2):
                for semantics in (JUMP, FIRSTFIT):
                    for t in all_tuples(n):
                        got = park_with_choices(
                            t, 0, RandomModel.NAPLES, k, semantics
                        )
                        assert got == park_naples_det(t, k, semantics)


class TestValidation:
    def test_preference_out_of_range(self):
        with pytest.raises(ValueError):
            park_forward((0, 1))
        with pytest.raises(ValueError):
            park_forward((1, 3))
        with pytest.raises(ValueError):
            park_forward(())
        with pytest.raises(ValueError):
            park_forward((True, 1))

    def test_choice_vector_out_of_range(self):
        with pytest.raises(ValueError):
            parks_under_choices((1, 1), -1, RandomModel.NAPLES)
        with pytest.raises(ValueError):
            parks_under_choices((1, 1), 2, RandomModel.NAPLES)
        with pytest.raises(ValueError):
            parks_under_choices((1, 1), True, RandomModel.NAPLES)

    def test_negative_backup_allowance(self):
        with pytest.raises(ValueError):
            park_naples_det((1, 1), -1)
        with pytest.raises(ValueError):
            park_with_choices((1, 1), 0, RandomModel.NAPLES, k=-2)

    def test_model_and_semantics_values_mean_their_members(self):
        assert park_naples_det((3, 3, 3), 2, "firstfit") == park_naples_det(
            (3, 3, 3), 2, FIRSTFIT
        )
        # (2, 2, 2) with every bit 0 parks under Naples, not under direction.
        for walk in (park_with_choices, parks_under_choices):
            assert walk((2, 2, 2), 0, "naples") == walk((2, 2, 2), 0, RandomModel.NAPLES)
            assert walk((2, 2, 2), 0, "direction") == walk(
                (2, 2, 2), 0, RandomModel.DIRECTION
            )
            assert walk((3, 3, 3), 0, "naples", 2, "firstfit") == walk(
                (3, 3, 3), 0, RandomModel.NAPLES, 2, FIRSTFIT
            )

    @pytest.mark.parametrize("model,semantics", [(7, JUMP), ("NAPLES", JUMP),
                                                 (RandomModel.NAPLES, "back")])
    def test_unknown_model_or_semantics(self, model, semantics):
        with pytest.raises(ValueError):
            parks_under_choices((2, 2, 2), 0, model, 1, semantics)
        with pytest.raises(ValueError):
            park_with_choices((2, 2, 2), 0, model, 1, semantics)
        if model is RandomModel.NAPLES:
            with pytest.raises(ValueError):
                park_naples_det((2, 2, 2), 1, semantics)


# Every public entry point that takes (model, k, semantics), on valid other inputs.
RULE_ENTRY_POINTS = {
    "park_with_choices": lambda m, k, s: park_with_choices((2, 2, 2), 0, m, k, s),
    "parks_under_choices": lambda m, k, s: parks_under_choices((2, 2, 2), 0, m, k, s),
    "prob_of_model": lambda m, k, s: prob_of_model((2, 2, 2), m, k, s),
    "prob_of_model_at": lambda m, k, s: prob_of_model_at(
        (2, 2, 2), m, Fraction(1, 2), k, s
    ),
    "estimate_prob": lambda m, k, s: estimate_prob((2, 2, 2), m, k, s, trials=8),
    "estimate_expected_total": lambda m, k, s: estimate_expected_total(
        3, m, k, s, tuple_samples=8
    ),
}
BAD_K_OR_SEMANTICS = [
    (-1, JUMP, "backward allowance k must be >= 0, got -1"),
    (True, JUMP, "backward allowance k must be an integer, got True"),
    (1.5, JUMP, "backward allowance k must be an integer, got 1.5"),
    (1, "back", "'back' is not a valid NaplesSemantics"),
]


@pytest.mark.parametrize("entry", RULE_ENTRY_POINTS)
@pytest.mark.parametrize(
    "model,k,semantics,message",
    [(m, *row) for m in RandomModel for row in BAD_K_OR_SEMANTICS]
    + [("bogus", 1, JUMP, "'bogus' is not a valid RandomModel")],
)
def test_every_entry_point_decodes_the_rule_alike(entry, model, k, semantics, message):
    with pytest.raises(ValueError) as info:
        RULE_ENTRY_POINTS[entry](model, k, semantics)
    assert str(info.value) == message


@st.composite
def replay_cases(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    prefs = tuple(draw(st.integers(1, n)) for _ in range(n))
    beta = draw(st.integers(0, (1 << (n - 1)) - 1 if n > 1 else 0))
    model = draw(st.sampled_from(list(RandomModel)))
    k = draw(st.integers(0, 3))
    semantics = draw(st.sampled_from(list(NaplesSemantics)))
    return prefs, beta, model, k, semantics


@given(replay_cases())
@settings(max_examples=300)
def test_replay_matches_list_scan_oracle(case):
    prefs, beta, model, k, semantics = case
    got = parks_under_choices(prefs, beta, model, k, semantics)
    want = naive_replay(
        prefs,
        coins_of(beta, len(prefs)),
        model.value,
        k,
        semantics is FIRSTFIT,
    )
    assert got == want


@given(replay_cases())
@settings(max_examples=300)
def test_fast_path_agrees_with_bookkeeping(case):
    prefs, beta, model, k, semantics = case
    result = park_with_choices(prefs, beta, model, k, semantics)
    assert result.parked_all == parks_under_choices(
        prefs, beta, model, k, semantics
    )
    if result.parked_all:
        assert sorted(result.assignment) == list(range(1, len(prefs) + 1))
        assert result.first_failed_car is None
    else:
        assert result.assignment is None
        assert 1 <= result.first_failed_car <= len(prefs)


@given(st.integers(0, (1 << 12) - 1), st.integers(1, 12))
@settings(max_examples=200)
def test_bit_scans_match_linear_scans(free, spot):
    up = [s for s in range(spot, 13) if free >> (s - 1) & 1]
    down = [s for s in range(spot, 0, -1) if free >> (s - 1) & 1]
    assert _lowest_free_from(free, spot) == (up[0] if up else 0)
    assert _highest_free_upto(free, spot) == (down[0] if down else 0)


@given(
    st.integers(0, (1 << 12) - 1),
    st.integers(1, 12),
    st.booleans(),
    st.integers(0, 13),
    st.booleans(),
)
@settings(max_examples=300)
def test_backward_spot_matches_linear_scans(free, a, naples, k, firstfit):
    def first_free(spots):
        return next((s for s in spots if free >> (s - 1) & 1), 0)

    if not naples:
        want = first_free(range(a - 1, 0, -1))
    elif firstfit:
        want = first_free(range(a - 1, max(a - k, 1) - 1, -1))
        want = want or first_free(range(a + 1, 13))
    else:
        want = first_free(range(max(a - k, 1), 13))
    assert _backward_spot(free, a, naples, k, firstfit) == want


def test_invariant_checks_survive_optimized_mode():
    """python -O strips assert statements, so the package must not rely on them."""
    sources = sorted(Path(parkmodel.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name} has assert statements at lines {asserts}"
