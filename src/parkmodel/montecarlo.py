"""Seeded simulation of both models for cross-checking the exact machinery.

Both estimators run one chunk loop (_estimate): a fixed tuple is the case
that draws no tuples, and estimate_expected_total draws each sample's
tuple before its branch bits. The public API takes 1-based preferences;
every array inside this module holds 0-based spots, and totals draw them
as 0..n-1.

Reproducibility scheme: trials are processed in fixed chunks of 2**15, and
chunk c of a run seeded with s draws from Philox keyed by SeedSequence
entropy (s, c). For 0 < p < 1 each trial consumes exactly n - 1 branch
draws, one per car 2..n, whether or not that car hits a conflict
(unconsulted draws mirror the unconsulted choice bits of the exact
enumeration); at p = 0 or 1 every bit is fixed and none is drawn. The bits
are a chunk's last draws, so skipping them moves no other draw, and results
depend only on (inputs, seed, trial count), never on scheduling. A branch
draw is one uint64 u; the p-weighted event fires when u < floor(p * 2**64),
which is exact whenever p has a power-of-two denominator (every
table-relevant case) and off by under 2**-64 otherwise.

The p-weighted event is the model's coin as the models define it: under the
random-direction rule it is the forward branch, under the random Naples
rule the backward branch.

Trials are walked through an occupancy automaton built once per call. It
gives each car a flat table from (state, preferred spot, choice bit) to the
next state, held as intp (numpy's native index type, so no gather converts
its index array); a dead state holds the runs that have failed. Every trial
of a chunk then costs one gather per car (_walk). For a fixed tuple the
reachable occupancy masks are not known in advance, so _automaton finds
them by a breadth-first search from the empty lot, one car at a time,
merging equal masks by _distinct_rows (the census DP's merge too), which
sorts the masks by a hash key and compares each with the one before it,
so a key collision cannot merge unequal masks. With
every spot available they are: after d cars, every mask of popcount d. So
_all_spot_automaton, which the expected total walks and the census reads
its transfer matrices from, builds every table in closed form, in one pass
over all 2^n masks. When the automaton would hold more cells than the
call's walks touch, counted as row-car cells over every chunk with the
rows capped at two chunks (totals at large n, pathological tuples),
neither is built, and each chunk is replayed by _parks_rows over a bool
occupancy matrix instead, with the same argument shapes as _walk. All
three park each car by _land, the one occupancy step: it returns the
column the car ends in, its own spot when free, else where the rule of
the scalar walker core._park lands it, so the estimates equal those of a
per-trial replay.

numpy is imported inside each function that uses it, not at module top, as
elsewhere in the package. The package and the census load this module only
when a simulation or a census product is asked for, and `mc` loads it
before it refuses a total past the float range, which then needs no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import prod, sqrt
from typing import TYPE_CHECKING, Sequence

from .core import (
    DEFAULT_SEMANTICS,
    NaplesSemantics,
    RandomModel,
    _check_int,
    _rule,
    check_preferences,
)
from .recursions import as_fraction

if TYPE_CHECKING:
    import numpy as np

CHUNK_TRIALS = 1 << 15


@dataclass(frozen=True)
class McEstimate:
    """Empirical mean with its normal-approximation standard error.

    trials counts the independent observations behind mean: simulation runs
    for estimate_prob, sampled tuples for estimate_expected_total. stats
    reports how the run was done and takes no part in equality: path
    ("automaton" or "replay"), rng_chunks (Philox chunks drawn), rows_walked
    (choice rows walked, one per trial) and states_peak (the widest layer of
    the automaton, 0 on the replay path).
    """

    mean: float
    stderr: float
    trials: int
    seed: int
    stats: dict = field(default_factory=dict, compare=False)


def _threshold(p: Fraction) -> int:
    return (p.numerator << 64) // p.denominator


def _generator(seed: int, chunk_index: int) -> np.random.Generator:
    import numpy as np

    ss = np.random.SeedSequence(entropy=(seed, chunk_index))
    return np.random.Generator(np.random.Philox(ss))


def _event_bits(gen: np.random.Generator, shape: tuple, thr: int, naples: bool):
    """Boolean array of choice bits; bit 1 is always the forward-only branch.

    At p = 0 or 1 every bit is the same, so nothing is drawn.
    """
    import numpy as np

    if thr <= 0 or thr >= 1 << 64:
        return np.full(shape, (thr > 0) != naples)
    draws = gen.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    # One comparison, so only one bool array sits beside the draws.
    return draws >= np.uint64(thr) if naples else draws < np.uint64(thr)


def _first_true(cand: np.ndarray) -> np.ndarray:
    """Column of each row's first True, or -1 where the row has none."""
    import numpy as np

    col = cand.argmax(axis=1)
    return np.where(cand[np.arange(len(cand)), col], col, -1)


def _last_true(cand: np.ndarray) -> np.ndarray:
    """Column of each row's last True, or -1 where the row has none."""
    import numpy as np

    col = _first_true(cand[:, ::-1])
    return np.where(col >= 0, cand.shape[1] - 1 - col, -1)


def _land(occ, a, fwd, naples: bool, k: int, firstfit: bool) -> np.ndarray:
    """Column each row's car ends in, or -1 where it fails (core._park's rule).

    occ is the (B, n) bool occupancy before the car, a its 0-based preferred
    spot in each row, fwd True where a blocked car searches forward only. A
    car whose spot is free takes it. A blocked car on the forward branch
    takes the first free column past a; on the backward branch, the last
    free column below a (direction), the first free column from a - k
    (Naples jump), or the last free column in the k-window below a, else
    the first past it (Naples firstfit). Each is a masked argmax over the
    blocked rows of one branch.
    """
    import numpy as np

    # Past n - 1 spots every backup reaches column 0, and numpy takes no
    # Python int past 2^63 - 1 in b - k.
    k = min(k, occ.shape[1])
    land = a.astype(np.int64)
    blocked = occ[np.arange(len(a)), a]
    cols = np.arange(occ.shape[1])
    ahead, back = blocked & fwd, blocked & ~fwd
    land[ahead] = _first_true(~occ[ahead] & (cols > a[ahead, None]))
    free, b = ~occ[back], a[back, None]
    if not naples:
        land[back] = _last_true(free & (cols < b))
    elif not firstfit:
        land[back] = _first_true(free & (cols >= b - k))
    else:
        window = _last_true(free & (cols >= b - k) & (cols < b))
        land[back] = np.where(window >= 0, window, _first_true(free & (cols > b)))
    return land


def _parks_rows(prefs, bits, naples: bool, k: int, firstfit: bool) -> np.ndarray:
    """core._park over many trials at once: True where every car of a row parks.

    Shapes as in _walk: bits holds the bool choice rows (last axis, column
    i-1 for 0-based car i; True searches forward only), prefs the 0-based
    preferred spots (last axis) of rows broadcasting against bits' leading
    axes. Car 1, which has no bit, takes its spot; every later car is
    parked by _land in every live row of a bool occupancy matrix that
    keeps only the live rows, and a row drops out at its first failed car.
    Inputs unvalidated.
    """
    import numpy as np

    shape, n = bits.shape[:-1], prefs.shape[-1]
    rows = prod(shape)
    prefs = np.broadcast_to(prefs, (*shape, n)).reshape(rows, n)
    bits = bits.reshape(rows, n - 1)
    live = np.arange(rows)
    occ = np.zeros((rows, n), dtype=bool)
    occ[live, prefs[:, 0]] = True
    for i in range(1, n):
        land = _land(occ, prefs[live, i], bits[live, i - 1], naples, k, firstfit)
        ok = land >= 0
        live, occ, land = live[ok], occ[ok], land[ok]
        occ[np.arange(len(live)), land] = True
    parked = np.zeros(rows, dtype=bool)
    parked[live] = True
    return parked.reshape(shape)


@cache
def _row_multipliers(width: int) -> np.ndarray:
    """width fixed odd uint64 multipliers: splitmix64 of 1, 3, 5, ..., low bit set.

    Odd inputs only: with x and 2x both inputs, m(2x) - 2m(x) repeats
    across x, and relations 2(m_i + m_j) = m_k + m_l follow that give
    unequal rows one key. Plain uint64 arithmetic, wrapping mod 2^64, so no
    random module loads. Cached per width and read-only.
    """
    import numpy as np

    z = np.arange(1, 2 * width, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    mult = z ^ z >> np.uint64(31) | np.uint64(1)
    mult.flags.writeable = False
    return mult


def _distinct_rows(rows: np.ndarray) -> tuple:
    """Equal rows merged: (first, inverse), with rows[first[inverse]] == rows.

    The package's one merge of equal rows. rows is an unsigned-integer view
    (census float32 bit patterns, automaton bool masks as uint8). A row's
    key is its entries dotted with _row_multipliers, wrapping mod 2^64 (a
    multiplicative hash); one argsort orders the keys, and a group starts
    wherever a row differs from the row before it in that order. So a group
    holds only equal rows, and a key collision can at worst leave equal
    rows in two groups. Groups come in key order, first[g] is some member
    of group g, and zero rows give empty arrays.
    """
    import numpy as np

    order = np.argsort(rows @ _row_multipliers(rows.shape[1]))
    rows = rows[order]
    new = np.empty(len(rows), dtype=bool)
    new[:1] = True
    # Differing cells counted in float32: a sum of ones never rounds to 0.
    ones = np.ones(rows.shape[1], np.float32)
    np.not_equal((rows[1:] != rows[:-1]) @ ones, 0, out=new[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


@dataclass(frozen=True)
class _Automaton:
    """Transition tables over the occupancy masks reachable after each car.

    Rows start in state 0, the empty lot; steps lists (car i, table) for
    each car whose table is walked, and a row ends in dead iff one of its
    cars failed.
    """

    steps: list
    dead: int
    states_peak: int


def _automaton(prefs, n: int, naples: bool, k: int, firstfit: bool, budget: int):
    """The occupancy automaton of the fixed tuple prefs, or None past budget cells.

    Layer i holds the distinct masks reachable after i cars, plus a dead
    state, numbered as _distinct_rows groups them. Car i's table
    maps state * 2 + b to the next layer's state, where b is the choice bit.
    A car whose spot is free in every reachable state consults no bit and
    keeps every state's index, so it needs no table.
    """
    import numpy as np

    masks = np.zeros((1, n), dtype=bool)
    steps, cells, peak = [], 0, 1
    for i, spot in enumerate(prefs):
        if not masks[:, spot].any():
            masks[:, spot] = True
            continue
        cells += (len(masks) + 1) * 2
        if cells > budget:
            return None
        # Candidate row 2s + b: state s, bit b.
        occ = np.repeat(masks, 2, axis=0)
        rows = np.arange(len(occ))
        land = _land(occ, np.full(len(occ), spot), rows % 2 == 1, naples, k, firstfit)
        rows = rows[land >= 0]
        occ[rows, land[rows]] = True
        first, inverse = _distinct_rows(occ[rows].view(np.uint8))
        masks = occ[rows[first]]
        peak = max(peak, len(masks))
        table = np.full(len(occ) + 2, len(masks), dtype=np.intp)
        table[rows] = inverse
        steps.append((i, table))
    return _Automaton(steps, len(masks), peak)


def _all_spot_automaton(n: int, naples: bool, k: int, firstfit: bool, budget: int):
    """The automaton of n cars that may each prefer any spot, or None past budget.

    Layer d is every mask of popcount d, C(n, d) states numbered in
    ascending order of the mask with spot j at bit n-1-j, plus a dead state
    C(n, d). Car d's table maps state * 2n + 2a + b to the next layer's
    state, where a is the 0-based preferred spot and b the choice bit. The
    table cells number sum
    over d < n of (C(n, d) + 1) * 2n, that is (2^n - 1 + n) * 2n, and past
    budget nothing is allocated. Every cell is found in one pass: a free
    spot is filled, a blocked car lands by _land, and the next mask's rank
    within its popcount comes from one lookup.
    """
    import numpy as np
    from math import comb

    if (2**n - 1 + n) * 2 * n > budget:
        return None
    widths = [comb(n, d) for d in range(n + 1)]
    pop = np.zeros(1 << n, dtype=np.intp)
    for i in range(n):
        pop[1 << i : 2 << i] = pop[: 1 << i] + 1
    # Every mask, by popcount and then ascending: layer d is order[starts[d]:].
    order = np.argsort(pop, kind="stable")
    starts = np.cumsum([0] + widths)
    rank = np.empty_like(order)
    rank[order] = np.arange(1 << n) - starts[pop[order]]
    bit = 1 << np.arange(n - 1, -1, -1)
    # Row r of cells is the state order[r], column 2j + b its spot j, bit b;
    # the full mask starts no car.
    order = order[:-1]
    occ = order[:, None] & bit != 0
    cells = np.repeat(rank[order[:, None] | bit], 2, axis=1)
    r, j = np.nonzero(occ)
    dead = np.array(widths[1:])[pop[order[r]]]
    for b in (0, 1):
        land = _land(occ[r], j, np.full(len(r), b == 1), naples, k, firstfit)
        cells[r, 2 * j + b] = np.where(land >= 0, rank[order[r] | bit[land]], dead)
    steps = []
    for d in range(n):
        table = np.full((widths[d] + 1) * 2 * n, widths[d + 1], dtype=np.intp)
        table[: -2 * n] = cells[starts[d] : starts[d + 1]].ravel()
        steps.append((d, table))
    return _Automaton(steps, widths[n], widths[n // 2])


def _walk(auto: _Automaton, prefs, bits) -> np.ndarray:
    """True where a row parks: one gather per walked car.

    bits holds the choice rows (last axis, column i-1 for car i); prefs is
    None for a fixed tuple, else the 0-based preferred spots (last axis) of
    rows broadcasting against bits' leading axes. Indices stay intp, so
    each table[state] gathers without first converting state.
    """
    import numpy as np

    state = np.zeros(bits.shape[:-1], dtype=np.intp)
    for i, table in auto.steps:
        if prefs is not None:
            state *= prefs.shape[-1]
            state += prefs[..., i]
        state <<= 1
        if i:
            state += bits[..., i - 1]
        state = table[state]
    return state != auto.dead


def _stats(auto, rng_chunks: int, rows_walked: int) -> dict:
    return {
        "path": "replay" if auto is None else "automaton",
        "rng_chunks": rng_chunks,
        "rows_walked": rows_walked,
        "states_peak": 0 if auto is None else auto.states_peak,
    }


def _estimate(prefs, n: int, rule, p, samples: int, per_sample: int, seed: int):
    """The chunk loop of both estimators: mean over samples of the parking frequency.

    prefs is the fixed tuple of 0-based spots, or None to draw each
    sample's tuple; rule is core._rule's (naples, k, firstfit). Chunk c
    draws its tuples (when drawn), then its (rows, per_sample, n-1) branch
    bits from the stream keyed (seed, c), a slice of CHUNK_TRIALS //
    per_sample samples at a time, and walks them by the one walk chosen
    per call: _walk through the automaton, or the _parks_rows replay past
    its budget: the call's samples * per_sample rows, capped at two chunks,
    times n cars, since the automaton is built once and serves every
    chunk. Past CHUNK_TRIALS trials per sample, a slice is one sample,
    drawn and walked in pieces of CHUNK_TRIALS trials (uint64 draws
    concatenate, so the stream is the same) whose parked counts sum as an
    int. One walk per sample gives Bernoulli
    observations: successes sum as an int and the stderr is binomial;
    otherwise it is the sample variance of the per-sample frequencies.
    """
    import numpy as np

    _check_int(seed, "seed", 0)
    p = as_fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")

    thr = _threshold(p)
    budget = min(samples * per_sample, 2 * CHUNK_TRIALS) * n
    if prefs is None:
        auto = _all_spot_automaton(n, *rule, budget)
    else:
        auto = _automaton(prefs, n, *rule, budget)
    if auto is None:
        walk = lambda tuples, bits: _parks_rows(tuples, bits, *rule)
        # The replay needs a fixed tuple's spots; its automaton has them built in.
        tuples = None if prefs is None else np.array(prefs)
    else:
        walk, tuples = partial(_walk, auto), None

    total = 0
    total_sq = 0.0
    chunks = range(0, samples, CHUNK_TRIALS)
    step = max(1, CHUNK_TRIALS // per_sample)
    piece = min(per_sample, CHUNK_TRIALS)
    for chunk_index, done in enumerate(chunks):
        rows = min(CHUNK_TRIALS, samples - done)
        gen = _generator(seed, chunk_index)
        if prefs is None:
            drawn = gen.integers(0, n, size=(rows, 1, n), dtype=np.int64)
        # Slices, and pieces of a slice, draw their bits from gen in turn,
        # continuing the chunk's stream.
        for start in range(0, rows, step):
            count = min(step, rows - start)
            if prefs is None:
                tuples = drawn[start : start + count]
            hits = 0
            for lo in range(0, per_sample, piece):
                shape = (count, min(piece, per_sample - lo), n - 1)
                parked = walk(tuples, _event_bits(gen, shape, thr, rule[0]))
                # With one walk per sample only the slice's total is needed.
                hits += parked.sum(axis=None if per_sample == 1 else 1)
            if per_sample == 1:
                total += int(hits)
            else:
                frac = hits / per_sample
                # Left-to-right running sums, as a per-sample loop would add
                # them; np.sum's pairwise order could change the last bits.
                total = float(np.add.accumulate(np.append(total, frac))[-1])
                total_sq = float(np.add.accumulate(np.append(total_sq, frac * frac))[-1])

    mean = total / samples
    if per_sample == 1:
        stderr = sqrt(mean * (1.0 - mean) / samples)
    elif samples > 1:
        var = (total_sq - total * total / samples) / (samples - 1)
        stderr = sqrt(max(var, 0.0) / samples)
    else:
        stderr = 0.0
    stats = _stats(auto, len(chunks), samples * per_sample)
    return McEstimate(mean=mean, stderr=stderr, trials=samples, seed=seed, stats=stats)


def estimate_prob(
    prefs: Sequence[int],
    model: RandomModel,
    k: int = 1,
    semantics: NaplesSemantics = DEFAULT_SEMANTICS,
    p=Fraction(1, 2),
    trials: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Empirical parking frequency of one preference tuple.

    The tuple's occupancy automaton is built once, over both choice bits of
    every blocked car, and every drawn choice row is walked through it, one
    gather per car that may be blocked. A tuple whose automaton would hold
    more table cells than the call's trials x n row-car cells (trials
    capped at two chunks) is replayed chunk by chunk in one vectorised walk
    (_parks_rows) instead. Both paths consume the same draws and give
    bit-identical results, equal to a per-trial replay of each drawn vector.
    """
    prefs = tuple(prefs)
    check_preferences(prefs, len(prefs))
    rule = _rule(model, k, semantics)
    _check_int(trials, "trials", 1)
    return _estimate(tuple(a - 1 for a in prefs), len(prefs), rule, p, trials, 1, seed)


def estimate_expected_total(
    n: int,
    model: RandomModel,
    k: int = 1,
    semantics: NaplesSemantics = DEFAULT_SEMANTICS,
    p=Fraction(1, 2),
    tuple_samples: int = 100_000,
    trials_per_tuple: int = 1,
    seed: int = 0,
) -> McEstimate:
    """Mean parking probability over uniformly sampled preference tuples.

    Scaling mean by n**n estimates the expected number of tuples that park.
    Each chunk draws its tuples first, then its branch bits, from the same
    chunk-keyed stream, and walks them through the all-spot automaton (or
    replays them when that is too large, as in estimate_prob).
    """
    _check_int(n, "car count n", 1)
    rule = _rule(model, k, semantics)
    _check_int(tuple_samples, "tuple_samples", 1)
    _check_int(trials_per_tuple, "trials_per_tuple", 1)
    return _estimate(None, n, rule, p, tuple_samples, trials_per_tuple, seed)
