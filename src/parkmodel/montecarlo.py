"""Seeded simulation of both models for cross-checking the exact machinery.

Reproducibility scheme: trials are processed in fixed chunks of 2**15, and
chunk c of a run seeded with s draws from Philox keyed by SeedSequence
entropy (s, c). Each trial consumes exactly n - 1 branch draws, one per car
2..n, whether or not that car hits a conflict (unconsulted draws mirror the
unconsulted choice bits of the exact enumeration), so results depend only on
(inputs, seed, trial count), never on scheduling. A branch draw is one
uint64 u; the p-weighted event fires when u < floor(p * 2**64), which is
exact whenever p has a power-of-two denominator (every table-relevant case)
and off by under 2**-64 otherwise.

The p-weighted event is the model's coin as the models define it: under the
random-direction rule it is the forward branch, under the random Naples
rule the backward branch.

The trials of a chunk are replayed together by _parks_rows, one car at a
time over a bool occupancy matrix. It agrees with core._parks on every
(tuple, choice vector), so the estimates equal those of a per-trial replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from typing import Sequence

import numpy as np

from .core import NaplesSemantics, RandomModel, _check_int, check_preferences
from .recursions import as_fraction

CHUNK_TRIALS = 1 << 15
_LOOKUP_MAX_BITS = 16


@dataclass(frozen=True)
class McEstimate:
    """Empirical mean with its normal-approximation standard error.

    trials counts the independent observations behind mean: simulation runs
    for estimate_prob, sampled tuples for estimate_expected_total. stats
    reports how the run was done and takes no part in equality: path
    ("lookup" or "replay"), rng_chunks (Philox chunks drawn) and rows_walked
    (choice rows replayed: the table's rows on the lookup path, one per
    trial on the replay path).
    """

    mean: float
    stderr: float
    trials: int
    seed: int
    stats: dict = field(default_factory=dict, compare=False)


def _threshold(p: Fraction) -> int:
    return (p.numerator << 64) // p.denominator


def _generator(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(seed, chunk_index))
    return np.random.Generator(np.random.Philox(ss))


def _event_bits(gen: np.random.Generator, shape: tuple, thr: int, naples: bool):
    """Boolean array of choice bits; bit 1 is always the forward-only branch."""
    draws = gen.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    if thr <= 0:
        event = np.zeros(shape, dtype=bool)
    elif thr >= 1 << 64:
        event = np.ones(shape, dtype=bool)
    else:
        event = draws < np.uint64(thr)
    return np.logical_not(event) if naples else event


def _pack_words(bits) -> np.ndarray:
    """Each row of at most 64 choice bits as a uint64 (column j is bit j)."""
    powers = np.uint64(1) << np.arange(bits.shape[-1], dtype=np.uint64)
    return (bits * powers).sum(axis=-1, dtype=np.uint64)


def _first_true(cand: np.ndarray) -> np.ndarray:
    """Column of each row's first True, or -1 where the row has none."""
    col = cand.argmax(axis=1)
    return np.where(cand[np.arange(len(cand)), col], col, -1)


def _last_true(cand: np.ndarray) -> np.ndarray:
    """Column of each row's last True, or -1 where the row has none."""
    col = _first_true(cand[:, ::-1])
    return np.where(col >= 0, cand.shape[1] - 1 - col, -1)


def _parks_rows(prefs, bits, naples: bool, k: int, firstfit: bool) -> np.ndarray:
    """core._parks over R trials at once: True where every car of the row parks.

    prefs is an (R, n) int array of 1-based preferences, bits the (R, n-1)
    bool choice rows (column i-1 belongs to 0-based car i; True searches
    forward only). All rows advance one car at a time over an (R, n) bool
    occupancy matrix. A blocked row lands on the first free column past its
    spot (forward branch) or on the column its backward branch reaches,
    each found by a masked argmax; a row drops out at its first failed car.
    Inputs unvalidated.
    """
    rows, n = prefs.shape
    occ = np.zeros((rows, n), dtype=bool)
    cols = np.arange(n)
    live = np.arange(rows)
    for i in range(n):
        spot = prefs[live, i] - 1
        blocked = occ[live, spot]
        occ[live[~blocked], spot[~blocked]] = True
        if not blocked.any():
            continue
        idx, a = live[blocked], spot[blocked]
        free = ~occ[idx]
        fwd = bits[idx, i - 1]
        land = np.empty(len(idx), dtype=np.int64)
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
        ok = land >= 0
        occ[idx[ok], land[ok]] = True
        keep = np.ones(len(live), dtype=bool)
        keep[np.flatnonzero(blocked)[~ok]] = False
        live = live[keep]
    parked = np.zeros(rows, dtype=bool)
    parked[live] = True
    return parked


def estimate_prob(
    prefs: Sequence[int],
    model: RandomModel,
    k: int = 1,
    semantics: NaplesSemantics = NaplesSemantics.JUMP_BACK_THEN_FORWARD,
    p=Fraction(1, 2),
    trials: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Empirical parking frequency of one preference tuple.

    For small n every one of the 2**(n-1) choice vectors is replayed once
    into a lookup table and trials reduce to table reads; larger n replays
    each chunk's drawn rows in one vectorised walk (_parks_rows). Both
    paths consume the same draws and give bit-identical results, equal to
    a per-trial replay of each drawn vector.
    """
    n = len(prefs)
    prefs = tuple(prefs)
    check_preferences(prefs, n)
    _check_int(k, "backward allowance k", 0)
    _check_int(trials, "trials", 1)
    _check_int(seed, "seed", 0)
    p = as_fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")

    naples = model is RandomModel.NAPLES
    firstfit = semantics is NaplesSemantics.FIRST_FIT_BACKWARD
    nbits = n - 1
    thr = _threshold(p)
    pref_row = np.array(prefs, dtype=np.int64)

    table = None
    if nbits <= _LOOKUP_MAX_BITS:
        every = (np.arange(1 << nbits)[:, None] >> np.arange(nbits) & 1).astype(bool)
        table = _parks_rows(
            np.broadcast_to(pref_row, (len(every), n)), every, naples, k, firstfit
        )

    successes = 0
    done = 0
    chunk_index = 0
    while done < trials:
        rows = min(CHUNK_TRIALS, trials - done)
        gen = _generator(seed, chunk_index)
        bits = _event_bits(gen, (rows, nbits), thr, naples)
        if table is not None:
            parked = table[_pack_words(bits)]
        else:
            parked = _parks_rows(
                np.broadcast_to(pref_row, (rows, n)), bits, naples, k, firstfit
            )
        successes += int(parked.sum())
        done += rows
        chunk_index += 1

    mean = successes / trials
    stderr = sqrt(mean * (1.0 - mean) / trials)
    stats = {
        "path": "replay" if table is None else "lookup",
        "rng_chunks": chunk_index,
        "rows_walked": trials if table is None else len(table),
    }
    return McEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed, stats=stats)


def estimate_expected_total(
    n: int,
    model: RandomModel,
    k: int = 1,
    semantics: NaplesSemantics = NaplesSemantics.JUMP_BACK_THEN_FORWARD,
    p=Fraction(1, 2),
    tuple_samples: int = 100_000,
    trials_per_tuple: int = 1,
    seed: int = 0,
) -> McEstimate:
    """Mean parking probability over uniformly sampled preference tuples.

    Scaling mean by n**n estimates the expected number of tuples that park.
    Each chunk draws its tuples first, then its branch bits, from the same
    chunk-keyed stream. With one trial per tuple the observations are
    Bernoulli and the stderr uses the exact binomial form; otherwise it
    falls back to the sample variance of the per-tuple frequencies.
    """
    _check_int(n, "car count n", 1)
    _check_int(k, "backward allowance k", 0)
    _check_int(tuple_samples, "tuple_samples", 1)
    _check_int(trials_per_tuple, "trials_per_tuple", 1)
    _check_int(seed, "seed", 0)
    p = as_fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")

    naples = model is RandomModel.NAPLES
    firstfit = semantics is NaplesSemantics.FIRST_FIT_BACKWARD
    nbits = n - 1
    thr = _threshold(p)

    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < tuple_samples:
        rows = min(CHUNK_TRIALS, tuple_samples - done)
        gen = _generator(seed, chunk_index)
        tuples = gen.integers(1, n + 1, size=(rows, n), dtype=np.int64)
        bits = _event_bits(gen, (rows, trials_per_tuple, nbits), thr, naples)
        parked = _parks_rows(
            np.repeat(tuples, trials_per_tuple, axis=0),
            bits.reshape(rows * trials_per_tuple, nbits),
            naples,
            k,
            firstfit,
        )
        hits = parked.reshape(rows, trials_per_tuple).sum(axis=1)
        frac = hits / trials_per_tuple
        # Left-to-right running sums, as a per-tuple loop would add them;
        # np.sum's pairwise order could change the last bits.
        total = float(np.add.accumulate(np.append(total, frac))[-1])
        total_sq = float(np.add.accumulate(np.append(total_sq, frac * frac))[-1])
        done += rows
        chunk_index += 1

    mean = total / tuple_samples
    if trials_per_tuple == 1:
        stderr = sqrt(mean * (1.0 - mean) / tuple_samples)
    elif tuple_samples > 1:
        var = (total_sq - total * total / tuple_samples) / (tuple_samples - 1)
        stderr = sqrt(max(var, 0.0) / tuple_samples)
    else:
        stderr = 0.0
    stats = {
        "path": "replay",
        "rng_chunks": chunk_index,
        "rows_walked": tuple_samples * trials_per_tuple,
    }
    return McEstimate(
        mean=mean, stderr=stderr, trials=tuple_samples, seed=seed, stats=stats
    )
