"""Seeded simulation of both models for cross-checking the exact machinery.

Both estimators run one chunk loop (_estimate): a fixed tuple is the case
that draws no tuples, and estimate_expected_total draws each sample's
tuple before its branch bits.

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

Trials are walked through an occupancy automaton built once per call
(_automaton). A breadth-first search from the empty lot, one car at a time,
keeps the distinct occupancy masks reachable after each car, and gives the
car a flat int32 table from (state, preferred spot, choice bit) to the next
state; a dead state holds the runs that have failed. Every trial of a chunk
then costs one gather per car (_walk). When the automaton would hold more
cells than one chunk's walk touches row-car cells (totals at large n,
pathological tuples), the search stops and each chunk is replayed by
_parks_rows over a bool occupancy matrix instead. Both land a blocked car
by _land, the rule of the scalar walker core._park, so the estimates equal
those of a per-trial replay. The census builds its transfer matrices from
the all-spot automaton too.

numpy is imported inside each function that uses it, not at module top:
the package and its CLI import this module for every command, and most
commands never simulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
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
    """Column each blocked car lands on, or -1 where it fails (core._park's rule).

    occ is the (B, n) bool occupancy of B rows whose car found its 0-based
    spot a taken; fwd is True where the car searches forward only. The
    forward branch takes the first free column past a. The backward branch
    takes the last free column below a (direction), the first free column
    from a - k (Naples jump), or the last free column in the k-window below
    a, else the first past it (Naples firstfit). Each is a masked argmax.
    """
    import numpy as np

    free = ~occ
    cols = np.arange(occ.shape[1])
    land = np.empty(len(a), dtype=np.int64)
    land[fwd] = _first_true(free[fwd] & (cols > a[fwd, None]))
    back, b = ~fwd, a[~fwd, None]
    if not naples:
        land[back] = _last_true(free[back] & (cols < b))
    elif not firstfit:
        land[back] = _first_true(free[back] & (cols >= b - k))
    else:
        window = _last_true(free[back] & (cols >= b - k) & (cols < b))
        past = _first_true(free[back] & (cols > b))
        land[back] = np.where(window >= 0, window, past)
    return land


def _parks_rows(prefs, bits, naples: bool, k: int, firstfit: bool) -> np.ndarray:
    """core._park over R trials at once: True where every car of the row parks.

    prefs is an (R, n) int array of 1-based preferences, bits the (R, n-1)
    bool choice rows (column i-1 belongs to 0-based car i; True searches
    forward only). All rows advance one car at a time over an (R, n) bool
    occupancy matrix; a blocked row lands by _land, and a row drops out at
    its first failed car. Inputs unvalidated.
    """
    import numpy as np

    rows, n = prefs.shape
    occ = np.zeros((rows, n), dtype=bool)
    live = np.arange(rows)
    for i in range(n):
        spot = prefs[live, i] - 1
        blocked = occ[live, spot]
        occ[live[~blocked], spot[~blocked]] = True
        if not blocked.any():
            continue
        idx = live[blocked]
        land = _land(occ[idx], spot[blocked], bits[idx, i - 1], naples, k, firstfit)
        ok = land >= 0
        occ[idx[ok], land[ok]] = True
        keep = np.ones(len(live), dtype=bool)
        keep[np.flatnonzero(blocked)[~ok]] = False
        live = live[keep]
    parked = np.zeros(rows, dtype=bool)
    parked[live] = True
    return parked


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
    """The occupancy automaton of n cars, or None past budget table cells.

    prefs is the fixed tuple, or None when every car may prefer every spot.
    Layer i holds the distinct masks reachable after i cars, plus a dead
    state. Car i may prefer m spots (1 or n); its table maps
    state * 2m + 2j + b to the next layer's state, where j indexes the spot
    and b is the choice bit. With every spot, j is the 1-based preference:
    the table then starts with two pad cells. A fixed car whose spot is free
    in every reachable state consults no bit and keeps every state's index,
    so it needs no table; every car of the all-spot automaton has one.
    """
    import numpy as np

    masks = np.zeros((1, n), dtype=bool)
    steps, cells, peak = [], 0, 1
    for i in range(n):
        spots = np.arange(n) if prefs is None else np.array([prefs[i] - 1])
        m = len(spots)
        if prefs is not None and not masks[:, spots[0]].any():
            masks[:, spots[0]] = True
            continue
        cells += (len(masks) + 1) * 2 * m
        if cells > budget:
            return None
        # Candidate row (s * m + j) * 2 + b: state s, spot j, bit b.
        occ = np.repeat(masks, 2 * m, axis=0)
        a = np.tile(np.repeat(spots, 2), len(masks))
        rows = np.arange(len(a))
        blocked = occ[rows, a]
        land = a.copy()
        fwd = rows[blocked] % 2 == 1
        land[blocked] = _land(occ[blocked], a[blocked], fwd, naples, k, firstfit)
        rows = rows[land >= 0]
        occ[rows, land[rows]] = True
        packed = np.packbits(occ[rows], axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        masks = occ[rows[first]]
        peak = max(peak, len(masks))
        table = np.full(len(occ) + 2 * m, len(masks), dtype=np.int32)
        table[rows] = inverse
        steps.append((i, np.pad(table, (2, 0)) if prefs is None else table))
    return _Automaton(steps, len(masks), peak)


def _walk(auto: _Automaton, prefs, bits) -> np.ndarray:
    """True where a row parks: one gather per walked car.

    bits holds the choice rows (last axis, column i-1 for car i); prefs is
    None for a fixed tuple, else the 1-based preferences (last axis) of
    rows broadcasting against bits' leading axes. Indices stay int32.
    """
    import numpy as np

    state = np.zeros(bits.shape[:-1], dtype=np.int32)
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

    prefs is the fixed tuple, or None to draw each sample's tuple; rule is
    core._rule's (naples, k, firstfit). Chunk c draws its tuples (when
    drawn) and then its (rows, per_sample, n-1) branch bits from the stream
    keyed (seed, c), and walks them through the occupancy automaton, or
    replays them when that is too large. With one walk per sample the
    observations are Bernoulli, successes are counted as an int and the
    stderr uses the exact binomial form; otherwise it falls back to the
    sample variance of the per-sample frequencies.
    """
    import numpy as np

    _check_int(seed, "seed", 0)
    p = as_fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")

    nbits = n - 1
    thr = _threshold(p)
    chunk_rows = min(CHUNK_TRIALS, samples) * per_sample
    auto = _automaton(prefs, n, *rule, chunk_rows * n)

    total = 0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < samples:
        rows = min(CHUNK_TRIALS, samples - done)
        gen = _generator(seed, chunk_index)
        if prefs is None:
            tuples = gen.integers(1, n + 1, size=(rows, 1, n), dtype=np.int64)
        else:
            tuples = np.array(prefs)
        bits = _event_bits(gen, (rows, per_sample, nbits), thr, rule[0])
        if auto is not None:
            parked = _walk(auto, tuples if prefs is None else None, bits)
        else:
            flat = rows * per_sample
            parked = _parks_rows(
                np.broadcast_to(tuples, (rows, per_sample, n)).reshape(flat, n),
                bits.reshape(flat, nbits),
                *rule,
            ).reshape(rows, per_sample)
        if per_sample == 1:
            total += int(parked.sum())
        else:
            frac = parked.sum(axis=1) / per_sample
            # Left-to-right running sums, as a per-sample loop would add them;
            # np.sum's pairwise order could change the last bits.
            total = float(np.add.accumulate(np.append(total, frac))[-1])
            total_sq = float(np.add.accumulate(np.append(total_sq, frac * frac))[-1])
        done += rows
        chunk_index += 1

    mean = total / samples
    if per_sample == 1:
        stderr = sqrt(mean * (1.0 - mean) / samples)
    elif samples > 1:
        var = (total_sq - total * total / samples) / (samples - 1)
        stderr = sqrt(max(var, 0.0) / samples)
    else:
        stderr = 0.0
    stats = _stats(auto, chunk_index, samples * per_sample)
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
    more table cells than a chunk's R x n row-car cells is replayed chunk by
    chunk in one vectorised walk (_parks_rows) instead. Both paths consume
    the same draws and give bit-identical results, equal to a per-trial
    replay of each drawn vector.
    """
    prefs = tuple(prefs)
    check_preferences(prefs, len(prefs))
    rule = _rule(model, k, semantics)
    _check_int(trials, "trials", 1)
    return _estimate(prefs, len(prefs), rule, p, trials, 1, seed)


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
