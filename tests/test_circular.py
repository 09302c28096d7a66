"""Ring parking with one spare spot, checked against cyclic list scans."""

import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkmodel import (
    CheckResult,
    EmptySpotDistribution,
    Poly,
    circular_park,
    empty_spot_distribution,
    park_with_choices,
    prob_random_direction,
    shift_preferences,
    verify_circular,
    VerificationReport,
)
from parkmodel import circular
from parkmodel.circular import _distribution, _ring_moves
from parkmodel.core import DEFAULT_SEMANTICS, RandomModel, _line_moves, _rule
from parkmodel.exact import _POLY_FACTORS, _kronecker_point, _park_each

from oracles import naive_circular_dist_at, naive_circular_empty, probe_points


class TestCircularPark:
    def test_two_cars_same_spot(self):
        assert circular_park((1, 1), 0b1) == 3
        assert circular_park((1, 1), 0b0) == 2
        assert circular_park((2, 2), 0b1) == 1
        assert circular_park((2, 2), 0b0) == 3

    def test_backward_wraps_through_the_spare_spot(self):
        assert circular_park((3, 3), 0b0) == 1
        assert circular_park((3, 3), 0b1) == 2

    def test_no_conflict_ignores_choices(self):
        for beta in (0b0, 0b1):
            assert circular_park((1, 2), beta) == 3
            assert circular_park((3, 1), beta) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            circular_park((4, 1), 0)
        with pytest.raises(ValueError):
            circular_park((0, 1), 0)
        with pytest.raises(ValueError):
            circular_park((1, 1), 2)
        with pytest.raises(ValueError):
            circular_park((1, 1), -1)


class TestEmptySpotDistribution:
    def test_two_car_example(self):
        dist = empty_spot_distribution((1, 1))
        assert dist.prob_for_spot(1) == Poly.zero()
        assert dist.prob_for_spot(2) == Poly((1, -1))
        assert dist.prob_for_spot(3) == Poly((0, 1))

    def test_identity_tuple_leaves_spare_spot(self):
        for n in (1, 2, 3, 4):
            dist = empty_spot_distribution(tuple(range(1, n + 1)))
            assert dist.prob_for_spot(n + 1) == Poly.one()
            for s in range(1, n + 1):
                assert dist.prob_for_spot(s) == Poly.zero()

    def test_naming_the_spare_spot_fills_it(self):
        for prefs in ((3, 1), (3, 3), (2, 4, 1), (4, 4, 4)):
            ring = len(prefs) + 1
            assert ring in prefs
            dist = empty_spot_distribution(prefs)
            assert dist.prob_for_spot(ring) == Poly.zero()

    def test_rotation_matches_shifted_tuple(self):
        for prefs in ((1, 1), (2, 1, 2), (3, 3, 1), (1, 2, 2, 4)):
            shifted = shift_preferences(prefs)
            assert empty_spot_distribution(shifted) == empty_spot_distribution(
                prefs
            ).rotated()

    def test_thirty_cars_on_spot_one(self):
        start = time.perf_counter()
        dist = empty_spot_distribution((1,) * 30)
        total = Poly.zero()
        for q in dist.probs:
            total = total + q
        assert total == Poly.one()
        assert dist.prob_for_spot(1) == Poly.zero()
        assert time.perf_counter() - start < 1.0

    def test_rotating_full_circle_is_identity(self):
        dist = empty_spot_distribution((2, 2, 1))
        assert dist.rotated().rotated().rotated().rotated() == dist

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            EmptySpotDistribution(2, (Poly.one(), Poly.zero()))
        with pytest.raises(ValueError):
            EmptySpotDistribution(1, (Poly.one(), Poly.one()))
        with pytest.raises(ValueError, match="entries must be a sequence"):
            EmptySpotDistribution(1, 5)
        with pytest.raises(ValueError):
            empty_spot_distribution((1, 1)).prob_for_spot(4)

    def test_entries_outside_the_unit_interval_are_rejected(self):
        # Both sum to 1: 2 + (-1) everywhere, and 2p + (1 - 2p).
        with pytest.raises(ValueError, match="leaves \\[0, 1\\]"):
            EmptySpotDistribution(1, (Poly((2,)), Poly((-1,))))
        with pytest.raises(ValueError, match="leaves \\[0, 1\\]"):
            EmptySpotDistribution(1, (Poly((0, 2)), Poly((1, -2))))

    def test_entries_are_stored_as_a_tuple(self):
        dist = EmptySpotDistribution(1, [Poly.one(), Poly.zero()])
        assert dist.probs == (Poly.one(), Poly.zero())
        assert dist == EmptySpotDistribution(1, (Poly.one(), Poly.zero()))
        assert hash(dist) == hash(EmptySpotDistribution(1, (Poly.one(), Poly.zero())))

    @pytest.mark.parametrize("probs", [(1, 0), (Poly.one(), 0), (Poly.one(), None)])
    def test_entries_that_are_not_polys_are_rejected(self, probs):
        with pytest.raises(ValueError, match="entries must be Polys"):
            EmptySpotDistribution(1, probs)

    @pytest.mark.parametrize("n", [True, 1.0, 0])
    def test_car_count_must_be_a_positive_int(self, n):
        with pytest.raises(ValueError, match="car count n"):
            EmptySpotDistribution(n, (Poly.one(), Poly.zero()))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_computed_distribution_constructs(self, n):
        for prefs in product(range(1, n + 2), repeat=n):
            dist = empty_spot_distribution(prefs)
            assert EmptySpotDistribution(n, dist.probs) == dist
            assert dist.rotated().probs == (*dist.probs[-1:], *dist.probs[:-1])

    @pytest.mark.parametrize("spot", [True, 1.0, "1"])
    def test_non_integer_spot_is_rejected(self, spot):
        dist = empty_spot_distribution((1, 1))
        with pytest.raises(ValueError, match="spot must be an integer"):
            dist.prob_for_spot(spot)


class TestShiftPreferences:
    def test_examples(self):
        assert shift_preferences((1, 2, 3)) == (2, 3, 4)
        assert shift_preferences((3, 3)) == (1, 1)
        assert shift_preferences((4, 1, 2)) == (1, 2, 3)

    def test_full_cycle_is_identity(self):
        prefs = (2, 4, 1, 3)
        out = prefs
        for _ in range(len(prefs) + 1):
            out = shift_preferences(out)
        assert out == prefs

    @pytest.mark.parametrize("prefs", [(7,), (0,), (True, 1), (), (1, 2.0)])
    def test_rejects_preferences_off_the_ring(self, prefs):
        with pytest.raises(ValueError):
            shift_preferences(prefs)


class TestAgainstLinearModel:
    """The spare spot stays empty exactly when the linear walk parks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_ring_leaves_the_spare_spot_iff_the_line_parks(self, n):
        # The ring run follows the line run until the first car the line
        # cannot park; that car wraps onto spot n+1, which then stays taken.
        for prefs in product(range(1, n + 1), repeat=n):
            for beta in range(1 << (n - 1)):
                line = park_with_choices(prefs, beta, RandomModel.DIRECTION)
                assert line.parked_all == (circular_park(prefs, beta) == n + 1), (
                    prefs, beta
                )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_spare_spot_probability_is_linear_parking_probability(self, n):
        for prefs in product(range(1, n + 1), repeat=n):
            dist = empty_spot_distribution(prefs)
            assert dist.prob_for_spot(n + 1) == prob_random_direction(prefs)

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(*[st.integers(1, n)] * n)))
    @settings(max_examples=200, deadline=None)
    def test_identity_holds_on_longer_tuples(self, prefs):
        n = len(prefs)
        dist = empty_spot_distribution(prefs)
        assert dist.prob_for_spot(n + 1) == prob_random_direction(prefs)


class TestVerifier:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sweep_passes(self, n):
        report = verify_circular(n)
        assert report.passed
        assert report.findings["linear_disagree"] == 0
        assert report.findings["linear_agree"] == n**n

    @pytest.mark.parametrize(
        "n, tuples, target, linear",
        [(1, 2, 1, 1), (2, 9, 3, 4), (3, 64, 16, 27), (4, 625, 125, 256)],
    )
    def test_report_is_pinned(self, n, tuples, target, linear):
        none_bad = "0 offending tuples"
        assert verify_circular(n) == VerificationReport(
            "circular-shift",
            (
                CheckResult(
                    "distributions normalized",
                    True,
                    f"{tuples} tuples swept, 0 not summing to 1",
                ),
                CheckResult("spot n+1 never empty when named", True, none_bad),
                CheckResult("shift rotates the distribution", True, none_bad),
                CheckResult("per-spot column sums uniform", True, f"target {target}"),
                CheckResult(
                    "linear agreement",
                    True,
                    f"{linear} of {linear} linear-range tuples match the "
                    "linear parking probability",
                ),
            ),
            {"linear_agree": linear, "linear_disagree": 0},
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_swept_distributions_match_the_hypercube_sum(self, n):
        ring = n + 1
        sweep = _park_each(
            n,
            lambda _: range(1, ring + 1),
            _ring_moves(ring),
            Poly.one(),
            _POLY_FACTORS,
        )
        for prefs, states in sweep:
            dist = _distribution(n, states, Poly.zero())
            assert dist == empty_spot_distribution(prefs).probs
            for p in probe_points(n):
                got = [q.evaluate(p) for q in dist]
                assert got == naive_circular_dist_at(prefs, p)

    def test_a_lost_branch_fails_the_normalization_row(self, monkeypatch):
        ring_moves = circular._ring_moves

        def lossy_ring_moves(ring):
            moves = ring_moves(ring)

            def lossy(occ, a):
                # Drop the backward branch of a car blocked on spot 1 by car 1.
                forward, backward = moves(occ, a)
                return (forward, 0) if (occ, a) == (0b1, 1) else (forward, backward)

            return lossy

        monkeypatch.setattr(circular, "_ring_moves", lossy_ring_moves)
        report = verify_circular(2)
        assert report.checks[0] == CheckResult(
            "distributions normalized", False, "9 tuples swept, 1 not summing to 1"
        )
        assert not report.passed

    def test_a_swapped_line_fails_the_linear_row(self, monkeypatch):
        line_moves = circular._line_moves

        def swapped_line_moves(n, rule):
            moves = line_moves(n, rule)
            return lambda occ, a: moves(occ, a)[::-1]

        monkeypatch.setattr(circular, "_line_moves", swapped_line_moves)
        report = verify_circular(2)
        linear = report.checks[-1]
        assert (linear.label, linear.passed) == ("linear agreement", False)
        assert linear.detail.startswith("2 of 4 ")
        assert report.findings == {"linear_agree": 2, "linear_disagree": 2}
        assert all(check.passed for check in report.checks[:-1])
        assert not report.passed

    def test_a_forward_jump_fails_the_shift_column_and_linear_rows(self, monkeypatch):
        ring_moves = circular._ring_moves

        def jumping_ring_moves(ring):
            moves = ring_moves(ring)

            def jumping(occ, a):
                # A car blocked on spot 1 by car 1 lands forward on spot 3,
                # not 2: no mass is lost, so only the other rows can see it.
                forward, backward = moves(occ, a)
                return (3, backward) if (occ, a) == (0b1, 1) else (forward, backward)

            return jumping

        monkeypatch.setattr(circular, "_ring_moves", jumping_ring_moves)
        report = verify_circular(3)
        assert [check.passed for check in report.checks] == [
            True, True, False, False, False
        ]
        assert report.checks[2:] == (
            CheckResult("shift rotates the distribution", False, "8 offending tuples"),
            CheckResult("per-spot column sums uniform", False, "target 16"),
            CheckResult(
                "linear agreement",
                False,
                "25 of 27 linear-range tuples match the linear parking probability",
            ),
        )
        assert report.findings == {"linear_agree": 25, "linear_disagree": 2}

    def test_sweep_bounds(self):
        with pytest.raises(ValueError):
            verify_circular(0)
        with pytest.raises(ValueError):
            verify_circular(5)
        with pytest.raises(ValueError, match="must be an integer"):
            verify_circular(True)


def _ring_and_line_sweeps(n, one, steps):
    """The two sweeps verify_circular runs, carrying one and steps."""
    ring = n + 1
    line = _line_moves(n, _rule(RandomModel.DIRECTION, 0, DEFAULT_SEMANTICS))
    yield from _park_each(
        n, lambda _: range(1, ring + 1), _ring_moves(ring), one, steps
    )
    yield from _park_each(n, lambda _: range(1, n + 1), line, one, steps)


class TestRingPointCarry:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_int_states_are_the_poly_states_at_the_ring_point(self, n):
        x = _kronecker_point(n)
        by_poly = _ring_and_line_sweeps(n, Poly.one(), _POLY_FACTORS)
        by_int = _ring_and_line_sweeps(n, 1, (1, x, 1 - x))
        swept = 0
        for (prefs, poly_states), (int_prefs, int_states) in zip(
            by_poly, by_int, strict=True
        ):
            assert int_prefs == prefs
            assert int_states.keys() == poly_states.keys()
            for mask, poly in poly_states.items():
                assert int_states[mask] == sum(c * x**i for i, c in enumerate(poly.coeffs))
            swept += 1
        assert swept == (n + 1) ** n + n**n

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_compared_coefficients_stay_below_half_the_ring_point(self, n):
        half = _kronecker_point(n) // 2
        ring = n + 1
        dists = [
            _distribution(n, states, Poly.zero())
            for _, states in _park_each(
                n,
                lambda _: range(1, ring + 1),
                _ring_moves(ring),
                Poly.one(),
                _POLY_FACTORS,
            )
        ]
        column_sums = [sum(col, Poly.zero()) for col in zip(*dists)]
        for value in [*(q for dist in dists for q in dist), *column_sums]:
            assert all(abs(c) < half for c in value.coeffs)


@st.composite
def ring_cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    prefs = tuple(draw(st.integers(1, n + 1)) for _ in range(n))
    beta = draw(st.integers(0, (1 << (n - 1)) - 1 if n > 1 else 0))
    return prefs, beta


@given(ring_cases())
@settings(max_examples=300)
def test_replay_matches_cyclic_list_scan(case):
    prefs, beta = case
    n = len(prefs)
    coins = tuple(beta >> j & 1 for j in range(max(n - 1, 0)))
    assert circular_park(prefs, beta) == naive_circular_empty(prefs, coins)


@given(ring_cases())
@settings(max_examples=120, deadline=None)
def test_distribution_matches_hypercube_sum(case):
    prefs, _ = case
    n = len(prefs)
    dist = empty_spot_distribution(prefs)
    for p in probe_points(n):
        want = naive_circular_dist_at(prefs, p)
        got = [q.evaluate(p) for q in dist.probs]
        assert got == want
        assert sum(got) == Fraction(1)
