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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Sequence

import numpy as np

from .core import NaplesSemantics, RandomModel, _check_int, _parks, check_preferences
from .recursions import as_fraction

CHUNK_TRIALS = 1 << 15
_LOOKUP_MAX_BITS = 16


@dataclass(frozen=True)
class McEstimate:
    """Empirical mean with its normal-approximation standard error.

    trials counts the independent observations behind mean: simulation runs
    for estimate_prob, sampled tuples for estimate_expected_total.
    """

    mean: float
    stderr: float
    trials: int
    seed: int


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
    powers = np.uint64(1) << np.arange(bits.shape[-1], dtype=np.uint64)
    return (bits * powers).sum(axis=-1, dtype=np.uint64)


def _pack_masks(bits) -> list:
    """Each row of choice bits as an int bitmask (column j is bit j), as lists.

    Up to 64 bits a row packs into one uint64. Wider rows, where uint64
    would wrap, pack 64 columns at a time and join the words as Python ints.
    """
    if bits.shape[-1] <= 64:
        return _pack_words(bits).tolist()
    masks = np.zeros(bits.shape[:-1], dtype=object)
    for lo in range(0, bits.shape[-1], 64):
        masks |= _pack_words(bits[..., lo : lo + 64]).astype(object) << lo
    return masks.tolist()


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
    each trial's drawn vector directly. Both paths consume the same draws
    and give bit-identical results.
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
    full = (1 << n) - 1
    nbits = n - 1
    thr = _threshold(p)

    table = None
    if nbits <= _LOOKUP_MAX_BITS:
        table = np.fromiter(
            (
                _parks(prefs, beta, naples, k, firstfit, full)
                for beta in range(1 << nbits)
            ),
            dtype=bool,
            count=1 << nbits,
        )

    successes = 0
    done = 0
    chunk_index = 0
    while done < trials:
        rows = min(CHUNK_TRIALS, trials - done)
        gen = _generator(seed, chunk_index)
        bits = _event_bits(gen, (rows, nbits), thr, naples)
        masks = _pack_masks(bits)
        if table is not None:
            successes += int(table[masks].sum())
        else:
            successes += sum(
                _parks(prefs, m, naples, k, firstfit, full) for m in masks
            )
        done += rows
        chunk_index += 1

    mean = successes / trials
    stderr = sqrt(mean * (1.0 - mean) / trials)
    return McEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed)


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
    full = (1 << n) - 1
    nbits = n - 1
    thr = _threshold(p)

    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < tuple_samples:
        rows = min(CHUNK_TRIALS, tuple_samples - done)
        gen = _generator(seed, chunk_index)
        tuples = gen.integers(1, n + 1, size=(rows, n), dtype=np.int64).tolist()
        bits = _event_bits(gen, (rows, trials_per_tuple, nbits), thr, naples)
        masks = _pack_masks(bits)
        for prefs, row in zip(tuples, masks):
            prefs = tuple(prefs)
            hits = sum(
                _parks(prefs, m, naples, k, firstfit, full) for m in row
            )
            frac = hits / trials_per_tuple
            total += frac
            total_sq += frac * frac
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
    return McEstimate(mean=mean, stderr=stderr, trials=tuple_samples, seed=seed)
