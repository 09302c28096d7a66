"""Seeded simulation: reproducibility, degenerate exactness, calibration."""

import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parkmodel.montecarlo as montecarlo
from parkmodel import (
    NaplesSemantics,
    RandomModel,
    estimate_expected_total,
    estimate_prob,
    expected_random_naples,
    park_forward,
    park_naples_det,
    parks_under_choices,
    prob_of_model,
)
from parkmodel.core import _backward_spot, _line_moves, _lowest_free_from, _park

JUMP = NaplesSemantics.JUMP_BACK_THEN_FORWARD
FIRSTFIT = NaplesSemantics.FIRST_FIT_BACKWARD
HALF = Fraction(1, 2)
SEED = 20260815


@st.composite
def walker_cases(draw):
    """Rows of one width up to 130 cars, choice bits, (naples, k, firstfit)."""
    n = draw(st.integers(min_value=1, max_value=130))
    rows = draw(st.integers(min_value=1, max_value=4))
    prefs = []
    for _ in range(rows):
        # A permutation with a few cars redirected runs deep before failing.
        row = draw(st.permutations(range(1, n + 1)))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=8)):
            row[i] = draw(st.integers(1, n))
        prefs.append(row)
    bits = [[draw(st.booleans()) for _ in range(n - 1)] for _ in range(rows)]
    config = (draw(st.booleans()), draw(st.integers(0, 3)), draw(st.booleans()))
    return np.array(prefs), np.array(bits, dtype=bool).reshape(rows, n - 1), config


# (naples, k, firstfit): the direction model ignores k and the semantics.
WALKER_CONFIGS = [(False, 1, False)] + [
    (True, k, firstfit) for k in range(4) for firstfit in (False, True)
]


def _mostly_distinct(rng, n):
    """A shuffled 1..n; every seventh car prefers the spot below its predecessor's."""
    prefs = rng.permutation(n) + 1
    prefs[6::7] = np.maximum(prefs[5::7][: len(prefs[6::7])] - 1, 1)
    return prefs


def _beta(row) -> int:
    return sum(1 << j for j, b in enumerate(row.tolist()) if b)


def _expected_parks(prefs, bits, naples, k, firstfit) -> list:
    n = prefs.shape[1]
    rows = [tuple(row) for row in prefs.tolist()]
    moves = _line_moves(n, (naples, k, firstfit))
    return [len(_park(t, _beta(b), moves)) == n for t, b in zip(rows, bits)]


def _assert_walker_matches_parks(prefs, bits, configs=None):
    """_parks_rows equals core._park row by row under each config; returns the last."""
    for naples, k, firstfit in configs or WALKER_CONFIGS:
        got = montecarlo._parks_rows(prefs - 1, bits, naples, k, firstfit)
        want = _expected_parks(prefs, bits, naples, k, firstfit)
        assert got.tolist() == want, (naples, k, firstfit)
    return got


def _fixed_tuple_walk(prefs, bits, naples, k, firstfit) -> list:
    """Each row walked through the automaton of its own tuple."""
    n = prefs.shape[1]
    parked = []
    for row, row_bits in zip((prefs - 1).tolist(), bits):
        auto = montecarlo._automaton(tuple(row), n, naples, k, firstfit, 1 << 20)
        assert auto is not None
        parked.append(bool(montecarlo._walk(auto, None, row_bits[None])[0]))
    return parked


class TestReproducibility:
    def test_same_inputs_same_estimate(self):
        a = estimate_prob((2, 2, 2), RandomModel.NAPLES, trials=70_000, seed=SEED)
        b = estimate_prob((2, 2, 2), RandomModel.NAPLES, trials=70_000, seed=SEED)
        assert a == b

    def test_seed_changes_the_stream(self):
        base = estimate_prob((2, 2, 2), RandomModel.NAPLES, trials=10_000, seed=0)
        others = [
            estimate_prob((2, 2, 2), RandomModel.NAPLES, trials=10_000, seed=s)
            for s in (1, 2, 3)
        ]
        assert any(o.mean != base.mean for o in others)

    def test_total_estimate_is_reproducible(self):
        a = estimate_expected_total(
            4, RandomModel.NAPLES, tuple_samples=50_000, seed=SEED
        )
        b = estimate_expected_total(
            4, RandomModel.NAPLES, tuple_samples=50_000, seed=SEED
        )
        assert a == b

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 14, 20])
    def test_zero_based_draw_is_the_one_based_draw_minus_one(self, n):
        # Totals draw spots 0..n-1 where they once drew preferences 1..n;
        # numpy's bounded draw depends only on the width of the range, so
        # every draw of a chunk, the branch bits after it too, is unchanged.
        thr = montecarlo._threshold(Fraction(1, 3))
        for seed, chunk in ((0, 0), (SEED, 1), (7, 5)):
            new = montecarlo._generator(seed, chunk)
            old = montecarlo._generator(seed, chunk)
            spots = new.integers(0, n, size=(500, 1, n), dtype=np.int64)
            prefs = old.integers(1, n + 1, size=(500, 1, n), dtype=np.int64)
            assert (spots == prefs - 1).all()
            new_bits = montecarlo._event_bits(new, (500, 2, n - 1), thr, True)
            old_bits = montecarlo._event_bits(old, (500, 2, n - 1), thr, True)
            assert (new_bits == old_bits).all()

    def test_sliced_chunk_is_pinned(self):
        # 2,000 walks per sample: slices of 32768 // 2000 = 16 samples, so
        # the 40 samples walk in 3; the figures were computed with one draw
        # of the whole chunk's bits.
        est = estimate_expected_total(
            6, RandomModel.DIRECTION, tuple_samples=40, trials_per_tuple=2000, seed=3
        )
        assert (est.mean, est.stderr) == (0.296425, 0.02615543742802406)

    def test_draws_stay_bounded_in_trials_per_tuple(self):
        # One draw of the chunk's bits would hold 256 * 4096 * 9 uint64,
        # about 75 MB; slices of 8 samples hold 2.4 MB.
        tracemalloc.start()
        try:
            estimate_expected_total(
                10, RandomModel.NAPLES, tuple_samples=256, trials_per_tuple=4096
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20

    def test_one_sample_draws_in_pieces_past_a_chunk(self):
        # 2^20 walks of one sample: pieces of 32768 hold 2.4 MB of draws
        # where one draw of the sample's bits held about 75 MB. The mean was
        # computed with one draw.
        tracemalloc.start()
        try:
            est = estimate_expected_total(
                10, RandomModel.NAPLES, tuple_samples=1, trials_per_tuple=1 << 20,
                seed=0,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20
        assert est.mean == 0.4997901916503906

    def test_pieced_samples_are_pinned(self):
        # 40,000 walks per sample: each of the 3 samples walks in two pieces
        # of one chunk's stream; the figures were computed with one draw.
        est = estimate_expected_total(
            6, RandomModel.DIRECTION, tuple_samples=3, trials_per_tuple=40000, seed=5
        )
        assert (est.mean, est.stderr) == (0.35355833333333336, 0.205114309762738)
        assert est.stats["rng_chunks"] == 1

    def test_automaton_and_replay_paths_agree(self, monkeypatch):
        prob = dict(
            prefs=(2, 2, 3, 1, 4, 4), model=RandomModel.NAPLES, k=2,
            semantics=FIRSTFIT, p=Fraction(1, 3), trials=40_000, seed=7,
        )
        total = dict(
            n=5, model=RandomModel.DIRECTION, p=Fraction(2, 3),
            tuple_samples=3_000, trials_per_tuple=3, seed=7,
        )
        via_automaton = estimate_prob(**prob), estimate_expected_total(**total)
        monkeypatch.setattr(montecarlo, "_automaton", lambda *args: None)
        monkeypatch.setattr(montecarlo, "_all_spot_automaton", lambda *args: None)
        via_replay = estimate_prob(**prob), estimate_expected_total(**total)
        assert via_automaton == via_replay
        for auto, replay in zip(via_automaton, via_replay):
            assert auto.stats["path"] == "automaton"
            assert auto.stats["states_peak"] > 1
            assert replay.stats["path"] == "replay"
            assert replay.stats["states_peak"] == 0


class TestDegenerateCases:
    def test_permutation_always_parks(self):
        for model in RandomModel:
            est = estimate_prob((3, 1, 2), model, trials=512, seed=SEED)
            assert est.mean == 1.0
            assert est.stderr == 0.0

    @pytest.mark.parametrize("naples", [False, True])
    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1)])
    def test_constant_coins_draw_nothing(self, naples, p):
        gen = montecarlo._generator(SEED, 0)
        bits = montecarlo._event_bits(gen, (4, 3), montecarlo._threshold(p), naples)
        assert (bits == ((p == 1) != naples)).all()
        fresh = montecarlo._generator(SEED, 0)
        assert gen.integers(0, 1 << 63) == fresh.integers(0, 1 << 63)

    def test_hopeless_tuple_never_parks(self):
        est = estimate_prob((3, 3, 3), RandomModel.NAPLES, trials=512, seed=SEED)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    @pytest.mark.parametrize(
        "prefs", [(2, 2, 2), (1, 1, 3), (3, 3, 2, 2), (2, 2, 4, 4)]
    )
    def test_endpoint_p_reduces_to_deterministic_walks(self, prefs):
        for k in (1, 2):
            for semantics in (JUMP, FIRSTFIT):
                at_one = estimate_prob(
                    prefs,
                    RandomModel.NAPLES,
                    k,
                    semantics,
                    p=1,
                    trials=256,
                    seed=3,
                )
                det = park_naples_det(prefs, k, semantics).parked_all
                assert at_one.mean == float(det)
                at_zero = estimate_prob(
                    prefs,
                    RandomModel.NAPLES,
                    k,
                    semantics,
                    p=0,
                    trials=256,
                    seed=3,
                )
                assert at_zero.mean == float(park_forward(prefs).parked_all)

    @pytest.mark.parametrize("prefs", [(2, 2, 2), (1, 1, 3), (2, 1, 2, 4)])
    def test_endpoint_p_for_direction_model(self, prefs):
        at_one = estimate_prob(
            prefs, RandomModel.DIRECTION, p=1, trials=256, seed=3
        )
        assert at_one.mean == float(park_forward(prefs).parked_all)
        at_zero = estimate_prob(
            prefs, RandomModel.DIRECTION, p=0, trials=256, seed=3
        )
        all_backward = parks_under_choices(prefs, 0, RandomModel.DIRECTION)
        assert at_zero.mean == float(all_backward)

    def test_single_car_total(self):
        est = estimate_expected_total(
            1, RandomModel.NAPLES, tuple_samples=100, seed=1
        )
        assert est.mean == 1.0
        assert est.stderr == 0.0


class TestCalibration:
    """Pinned-seed runs must land within five standard errors of exact."""

    CASES = [
        ((2, 2, 2), RandomModel.NAPLES, 1, HALF),
        ((2, 2, 2), RandomModel.NAPLES, 1, Fraction(1, 4)),
        ((3, 3, 2), RandomModel.NAPLES, 1, HALF),
        ((1, 2, 2, 1), RandomModel.DIRECTION, 1, HALF),
        ((2, 2, 3, 1), RandomModel.DIRECTION, 1, Fraction(1, 3)),
        ((4, 4, 2, 3, 2, 2), RandomModel.NAPLES, 2, HALF),
    ]

    @pytest.mark.parametrize("prefs,model,k,p", CASES)
    def test_estimate_within_band(self, prefs, model, k, p):
        exact = prob_of_model(prefs, model, k).evaluate(p)
        est = estimate_prob(prefs, model, k, p=p, trials=20_000, seed=SEED)
        assert est.stderr > 0
        assert abs(est.mean - float(exact)) < 5 * est.stderr

    def test_total_estimate_within_band(self):
        est = estimate_expected_total(
            3, RandomModel.NAPLES, tuple_samples=40_000, seed=SEED
        )
        exact = expected_random_naples(3, 1, HALF) / 3**3
        assert abs(est.mean - float(exact)) < 5 * est.stderr

    def test_total_estimate_direction_model(self):
        est = estimate_expected_total(
            3, RandomModel.DIRECTION, tuple_samples=40_000, seed=SEED
        )
        assert abs(est.mean - 16.0 / 27.0) < 5 * est.stderr

    def test_multiple_trials_per_tuple(self):
        est = estimate_expected_total(
            3,
            RandomModel.NAPLES,
            tuple_samples=10_000,
            trials_per_tuple=4,
            seed=SEED,
        )
        exact = expected_random_naples(3, 1, HALF) / 3**3
        assert est.stderr > 0
        assert abs(est.mean - float(exact)) < 5 * est.stderr


class TestValidation:
    def test_bad_seed(self):
        with pytest.raises(ValueError):
            estimate_prob((1, 1), RandomModel.NAPLES, seed=-1)
        with pytest.raises(ValueError):
            estimate_prob((1, 1), RandomModel.NAPLES, seed=True)

    def test_bad_trial_counts(self):
        with pytest.raises(ValueError):
            estimate_prob((1, 1), RandomModel.NAPLES, trials=0)
        with pytest.raises(ValueError):
            estimate_expected_total(2, RandomModel.NAPLES, tuple_samples=0)
        with pytest.raises(ValueError):
            estimate_expected_total(
                2, RandomModel.NAPLES, trials_per_tuple=0
            )

    def test_float_p_is_rejected(self):
        with pytest.raises(TypeError):
            estimate_prob((1, 1), RandomModel.NAPLES, p=0.5)
        with pytest.raises(TypeError):
            estimate_expected_total(2, RandomModel.NAPLES, p=0.5)

    def test_out_of_range_p(self):
        with pytest.raises(ValueError):
            estimate_prob((1, 1), RandomModel.NAPLES, p=Fraction(5, 4))
        with pytest.raises(ValueError):
            estimate_expected_total(2, RandomModel.NAPLES, p=-1)

    def test_model_and_semantics_values_mean_their_members(self):
        kwargs = dict(k=2, trials=2_000, seed=SEED)
        assert estimate_prob((3, 3, 2), "naples", semantics="firstfit", **kwargs) == (
            estimate_prob((3, 3, 2), RandomModel.NAPLES, semantics=FIRSTFIT, **kwargs)
        )
        assert estimate_prob((2, 2, 2), "direction", **kwargs) == estimate_prob(
            (2, 2, 2), RandomModel.DIRECTION, **kwargs
        )
        assert estimate_expected_total(
            3, "naples", tuple_samples=2_000, seed=SEED
        ) == estimate_expected_total(3, RandomModel.NAPLES, tuple_samples=2_000, seed=SEED)

    @pytest.mark.parametrize("model,semantics", [(7, JUMP), ("Naples", JUMP),
                                                 (RandomModel.NAPLES, "first-fit")])
    def test_unknown_model_or_semantics(self, model, semantics):
        with pytest.raises(ValueError):
            estimate_prob((2, 2, 2), model, semantics=semantics, trials=10)
        with pytest.raises(ValueError):
            estimate_expected_total(3, model, semantics=semantics, tuple_samples=10)

    def test_bad_preferences_and_k(self):
        with pytest.raises(ValueError):
            estimate_prob((0, 1), RandomModel.NAPLES)
        with pytest.raises(ValueError):
            estimate_prob((1, 1), RandomModel.NAPLES, k=-1)
        with pytest.raises(ValueError):
            estimate_expected_total(0, RandomModel.NAPLES)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"k": -1}, "backward allowance k must be >= 0, got -1"),
            ({"k": 1.0}, "backward allowance k must be an integer, got 1.0"),
            ({"p": Fraction(5, 4)}, "p must lie in [0, 1], got 5/4"),
            ({"p": -1}, "p must lie in [0, 1], got -1"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"seed": True}, "seed must be an integer, got True"),
        ],
    )
    def test_shared_argument_messages(self, kwargs, message):
        with pytest.raises(ValueError) as prob_err:
            estimate_prob((1, 1), RandomModel.NAPLES, trials=10, **kwargs)
        with pytest.raises(ValueError) as total_err:
            estimate_expected_total(2, RandomModel.NAPLES, tuple_samples=10, **kwargs)
        assert str(prob_err.value) == str(total_err.value) == message

    @pytest.mark.parametrize(
        "estimator,args,kwargs,message",
        [
            (estimate_prob, ((1, 1),), {"trials": 0}, "trials must be >= 1, got 0"),
            (estimate_expected_total, (2,), {"tuple_samples": 0},
             "tuple_samples must be >= 1, got 0"),
            (estimate_expected_total, (2,), {"trials_per_tuple": 0},
             "trials_per_tuple must be >= 1, got 0"),
            (estimate_expected_total, (0,), {}, "car count n must be >= 1, got 0"),
        ],
    )
    def test_sample_count_messages(self, estimator, args, kwargs, message):
        with pytest.raises(ValueError) as err:
            estimator(*args, RandomModel.NAPLES, **kwargs)
        assert str(err.value) == message


class TestMoreThan64Cars:
    """Choice vectors wider than 64 bits must not wrap; bit j is car j + 2."""

    @pytest.mark.parametrize("n", [64, 65, 66, 70])
    def test_all_forward_always_parks(self, n):
        prefs = (1,) * n
        exact = prob_of_model(prefs, RandomModel.DIRECTION).evaluate(1)
        est = estimate_prob(prefs, RandomModel.DIRECTION, p=1, trials=1_000, seed=SEED)
        assert exact == 1
        assert est.mean == exact

    @pytest.mark.parametrize("n", [64, 65, 66, 70])
    def test_last_car_draws_its_own_coin(self, n):
        # Cars 1..n-1 fill spots 2..n; the last car, blocked at n, parks
        # only by backing up to spot 1, so everything rides on bit n - 2.
        prefs = tuple(range(2, n + 1)) + (n,)
        exact = prob_of_model(prefs, RandomModel.DIRECTION).evaluate(HALF)
        est = estimate_prob(prefs, RandomModel.DIRECTION, trials=4_000, seed=SEED)
        assert exact == HALF
        assert abs(est.mean - float(exact)) < 5 * est.stderr

    @pytest.mark.parametrize("n", [65, 130])
    def test_walker_matches_parks_beyond_64_cars(self, n):
        rng = np.random.default_rng(n)
        prefs = np.array([_mostly_distinct(rng, n) for _ in range(200)])
        bits = rng.random((200, n - 1)) < 0.9
        parked = _assert_walker_matches_parks(prefs, bits)
        assert 0 < parked.sum() < len(parked)


class TestWalker:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_parks_on_every_tuple_and_choice_vector(self, n):
        tuples = np.array(list(product(range(1, n + 1), repeat=n)))
        choices = np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1) & 1 == 1
        prefs = np.repeat(tuples, len(choices), axis=0)
        bits = np.tile(choices, (len(tuples), 1))
        _assert_walker_matches_parks(prefs, bits)

    @given(walker_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_parks_on_random_rows(self, case):
        prefs, bits, config = case
        _assert_walker_matches_parks(prefs, bits, [config])

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_prefs_broadcast_against_the_leading_axes_of_bits(self, n):
        # The shapes _walk takes: one tuple (n,), or one per sample
        # (count, 1, n), against bits of shape (count, width, n - 1).
        rng = np.random.default_rng(n)
        count, width = 40, 6
        bits = rng.random((count, width, n - 1)) < 0.5
        flat_bits = bits.reshape(count * width, n - 1)
        one = rng.integers(0, n, n)
        per_sample = rng.integers(0, n, (count, 1, n))
        flat_prefs = {
            "one": np.tile(one, (count * width, 1)),
            "per_sample": np.repeat(per_sample[:, 0], width, axis=0),
        }
        for config in WALKER_CONFIGS:
            for name, prefs in (("one", one), ("per_sample", per_sample)):
                got = montecarlo._parks_rows(prefs, bits, *config)
                want = montecarlo._parks_rows(flat_prefs[name], flat_bits, *config)
                assert got.shape == (count, width), (name, config)
                assert got.ravel().tolist() == want.tolist(), (name, config)


def _config_id(config) -> str:
    naples, k, firstfit = config
    return f"naples-{k}-{'firstfit' if firstfit else 'jump'}" if naples else "direction"


class TestLand:
    """_land returns the column every row's car ends in, free spot or blocked."""

    @pytest.mark.parametrize("config", WALKER_CONFIGS, ids=_config_id)
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 20])
    def test_matches_the_scalar_rule_on_mixed_rows(self, n, config):
        rng = np.random.default_rng(n)
        rows = 600
        occ = rng.random((rows, n)) < 0.6
        a = rng.integers(0, n, rows)
        fwd = rng.random(rows) < 0.5
        land = montecarlo._land(occ, a, fwd, *config)
        assert land.shape == (rows,)
        kinds = set()
        for row, spot, forward, got in zip(occ, a.tolist(), fwd.tolist(), land.tolist()):
            free = sum(1 << j for j in np.flatnonzero(~row).tolist())
            if free >> spot & 1:
                want, kind = spot + 1, "free"
            elif forward:
                want, kind = _lowest_free_from(free, spot + 2), "forward"
            else:
                want, kind = _backward_spot(free, spot + 1, *config), "backward"
            kinds.add(kind if want or kind == "free" else "fails")
            assert got == want - 1, (row.tolist(), spot, forward)
        assert kinds >= ({"free"} if n == 1 else {"free", "forward", "backward", "fails"})


class TestAutomaton:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
    def test_matches_parks_on_every_tuple_and_choice_vector(self, n):
        tuples = np.array(list(product(range(1, n + 1), repeat=n)))
        choices = np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1) & 1 == 1
        for naples, k, firstfit in WALKER_CONFIGS:
            moves = _line_moves(n, (naples, k, firstfit))
            # Row beta of choices is the choice vector beta.
            want = np.array(
                [
                    [
                        len(_park(t, beta, moves)) == n
                        for beta in range(len(choices))
                    ]
                    for t in tuples.tolist()
                ]
            )
            every = montecarlo._all_spot_automaton(n, naples, k, firstfit, 1 << 20)
            bits = np.broadcast_to(choices, (len(tuples), *choices.shape))
            got = montecarlo._walk(every, tuples[:, None, :] - 1, bits)
            assert (got == want).all(), (naples, k, firstfit)
            for t, row in zip(tuples, want):
                auto = montecarlo._automaton(tuple(t - 1), n, naples, k, firstfit, 1 << 20)
                assert (montecarlo._walk(auto, None, choices) == row).all(), (
                    tuple(t), naples, k, firstfit
                )

    @given(walker_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_parks_on_random_rows(self, case):
        prefs, bits, config = case
        assert _fixed_tuple_walk(prefs, bits, *config) == _expected_parks(
            prefs, bits, *config
        )

    @pytest.mark.parametrize(
        "n,fixed",
        [
            (5, None),
            (5, (3, 3, 3, 1, 2)),
            (70, tuple(_mostly_distinct(np.random.default_rng(70), 70).tolist())),
        ],
        ids=["all-spot", "fixed", "fixed-70"],
    )
    def test_tables_are_intp_and_walk_like_parks(self, n, fixed):
        # intp indices gather without a conversion; an int32 table walks
        # alike but slower, so only this dtype check can see it.
        rng = np.random.default_rng(n)
        if fixed is None:
            prefs = rng.integers(1, n + 1, size=(300, n))
        else:
            prefs = np.tile(fixed, (300, 1))
        bits = rng.random((300, n - 1)) < 0.5
        for config in WALKER_CONFIGS:
            if fixed is None:
                auto = montecarlo._all_spot_automaton(n, *config, 1 << 20)
            else:
                auto = montecarlo._automaton(prefs[0] - 1, n, *config, 1 << 20)
            assert auto.steps, config
            assert all(table.dtype == np.intp for _, table in auto.steps), config
            walked = montecarlo._walk(auto, prefs - 1 if fixed is None else None, bits)
            parked = _assert_walker_matches_parks(prefs, bits, [config])
            assert (walked == parked).all(), config

    def test_all_spot_layers_hold_every_mask_of_their_popcount(self):
        auto = montecarlo._all_spot_automaton(10, True, 1, False, 1 << 20)
        assert auto.states_peak == 252
        assert [i for i, _ in auto.steps] == list(range(10))

    def test_bound_stops_the_search(self):
        # Layers 0 and 1 of the 24-spot automaton hold 96 + 1200 cells.
        assert montecarlo._all_spot_automaton(24, False, 1, False, 1295) is None
        assert montecarlo._automaton((0,) * 24, 24, False, 1, False, 47) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_spot_cells_match_parks(self, n):
        # State s of layer d is the s-th popcount-d mask, ascending with spot
        # j at bit n-1-j. Its first d cars take its spots directly; car d+1
        # prefers spot a with bit b, and must reach the rank of the mask
        # _park leaves, or the dead state where it fails.
        layers = [
            sorted(sum(1 << (n - 1 - j) for j in c) for c in combinations(range(n), d))
            for d in range(n + 1)
        ]
        for naples, k, firstfit in WALKER_CONFIGS:
            auto = montecarlo._all_spot_automaton(n, naples, k, firstfit, 1 << 20)
            moves = _line_moves(n, (naples, k, firstfit))
            assert (auto.dead, auto.states_peak) == (1, comb(n, n // 2))
            assert [i for i, _ in auto.steps] == list(range(n))
            for d, table in auto.steps:
                width, nxt = len(layers[d]), layers[d + 1]
                assert table.dtype == np.intp
                assert len(table) == (width + 1) * 2 * n
                assert (table[width * 2 * n :] == len(nxt)).all()
                for s, mask in enumerate(layers[d]):
                    head = [j + 1 for j in range(n) if mask >> (n - 1 - j) & 1]
                    for a, b in product(range(1, n + 1), (0, 1)):
                        prefs = head + [a] + [1] * (n - d - 1)
                        spots = _park(prefs, b << (d - 1) if d else 0, moves)
                        if len(spots) > d:
                            want = nxt.index(sum(1 << (n - x) for x in spots[: d + 1]))
                        else:
                            want = len(nxt)
                        cell = table[s * 2 * n + 2 * (a - 1) + b]
                        assert cell == want, (naples, k, firstfit, d, s, a, b)

    def test_all_spot_budget_is_decided_before_building(self):
        for n in range(1, 13):
            total = sum((comb(n, d) + 1) * 2 * n for d in range(n))
            assert montecarlo._all_spot_automaton(n, True, 1, False, total - 1) is None
            assert montecarlo._all_spot_automaton(n, True, 1, False, total) is not None
        # 2^40 masks are never allocated: the refusal costs a few integers.
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert montecarlo._all_spot_automaton(40, True, 1, False, 10**6) is None
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_budget_counts_at_most_two_chunks_of_rows(self, monkeypatch):
        # 1 sample x 2^17 trials would admit 2^17 * n cells; the cap is 2^16.
        budgets = []
        build = montecarlo._all_spot_automaton

        def spy(n, naples, k, firstfit, budget):
            budgets.append(budget)
            return build(n, naples, k, firstfit, budget)

        monkeypatch.setattr(montecarlo, "_all_spot_automaton", spy)
        est = estimate_expected_total(
            3, RandomModel.NAPLES, tuple_samples=1, trials_per_tuple=1 << 17, seed=SEED
        )
        assert budgets == [65_536 * 3]
        assert est.stats["path"] == "automaton"
        # So no closed form above 14 cars is ever built.
        assert build(15, True, 1, False, 65_536 * 15) is None
        assert build(14, True, 1, False, 65_536 * 14) is not None

    def test_budget_counts_the_rows_of_every_chunk(self, monkeypatch):
        # The 14-car closed form holds (2^14 - 1 + 14) * 28 = 459,116 cells:
        # more than one chunk's 2^15 * 14 row-car cells, within the two
        # chunks' 2^16 * 14 that one walk serves.
        call = dict(n=14, model=RandomModel.NAPLES, tuple_samples=1 << 16, seed=SEED)
        walked = estimate_expected_total(**call)
        monkeypatch.setattr(montecarlo, "_all_spot_automaton", lambda *args: None)
        replayed = estimate_expected_total(**call)
        assert walked.stats["path"] == "automaton"
        assert replayed.stats["path"] == "replay"
        assert (walked.mean, walked.stderr) == (replayed.mean, replayed.stderr)

    def test_large_total_takes_the_replay_path(self):
        est = estimate_expected_total(
            24, RandomModel.NAPLES, tuple_samples=2_000, seed=SEED
        )
        assert est.stats == {
            "path": "replay", "rng_chunks": 1, "rows_walked": 2_000, "states_peak": 0
        }
        exact = expected_random_naples(24, 1, HALF) / 24**24
        assert abs(est.mean - float(exact)) < 5 * est.stderr

    def test_fixed_tuple_key_collision_raises(self, monkeypatch):
        # Car 2 of (2, 2, 1) lands on spot 3 or spot 1: two distinct masks,
        # which all-zero multipliers give one key.
        monkeypatch.setattr(
            montecarlo, "_row_multipliers", lambda width: np.zeros(width, dtype=np.uint64)
        )
        with pytest.raises(RuntimeError, match="hash key"):
            estimate_prob((2, 2, 1), RandomModel.DIRECTION, trials=64, seed=SEED)

    def test_merge_of_zero_rows_is_empty(self):
        first, inverse = montecarlo._distinct_rows(
            np.zeros((0, 5), dtype=np.uint8), montecarlo._row_multipliers(5)
        )
        assert first.shape == inverse.shape == (0,)
        assert inverse.dtype == np.intp
