"""Brute-force oracles shared across the test modules.

Everything here is written the slow, obvious way on purpose: plain list
scans over the lot and full hypercube sums over coin outcomes. The
library under test uses bitmask state and dynamic programming over
occupancy masks, merging every coin prefix that fills the same spots, so
agreement between the two routes is meaningful evidence rather than a
tautology. Keep these functions dumb.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, Optional, Sequence


def _first_free(lot: "list[bool]", spots: range) -> Optional[int]:
    for s in spots:
        if not lot[s]:
            return s
    return None


def naive_replay(
    prefs: Sequence[int],
    coins: Sequence[int],
    model: str,
    k: int = 1,
    firstfit: bool = False,
) -> bool:
    """Replay one coin sequence with plain list scans.

    ``coins[i - 2]`` is consulted when car ``i`` (1-based) finds its spot
    taken; value 1 sends the car forward from its preference, value 0
    takes the model's backward branch. Car 1 never consults a coin.
    """
    n = len(prefs)
    lot = [False] * (n + 1)
    for i, a in enumerate(prefs, start=1):
        if not lot[a]:
            lot[a] = True
            continue
        if coins[i - 2]:
            spot = _first_free(lot, range(a + 1, n + 1))
        elif model == "direction":
            spot = _first_free(lot, range(a - 1, 0, -1))
        elif firstfit:
            spot = _first_free(lot, range(a - 1, max(a - k, 1) - 1, -1))
            if spot is None:
                spot = _first_free(lot, range(a + 1, n + 1))
        else:
            spot = _first_free(lot, range(max(a - k, 1), n + 1))
        if spot is None:
            return False
        lot[spot] = True
    return True


def naive_prob_at(
    prefs: Sequence[int],
    p: Fraction,
    model: str,
    k: int = 1,
    firstfit: bool = False,
) -> Fraction:
    """Exact parking probability at rational ``p`` by full hypercube sum.

    In the direction model the forward branch (coin 1) carries weight p.
    In the Naples model the backward branch (coin 0) carries weight p.
    """
    n = len(prefs)
    total = Fraction(0)
    for coins in product((0, 1), repeat=max(n - 1, 0)):
        if not naive_replay(prefs, coins, model, k, firstfit):
            continue
        weight = Fraction(1)
        for c in coins:
            if model == "direction":
                weight *= p if c else 1 - p
            else:
                weight *= (1 - p) if c else p
        total += weight
    return total


def naive_choice_count(
    prefs: Sequence[int], k: int = 1, firstfit: bool = False
) -> int:
    """Number of coin sequences under which the Naples walk parks all cars."""
    n = len(prefs)
    return sum(
        naive_replay(prefs, coins, "naples", k, firstfit)
        for coins in product((0, 1), repeat=max(n - 1, 0))
    )


def naive_circular_empty(prefs: Sequence[int], coins: Sequence[int]) -> int:
    """Empty spot left on the ring of ``n + 1`` spots after all cars park."""
    n = len(prefs)
    ring = n + 1
    lot = [False] * ring
    for i, a in enumerate(prefs, start=1):
        idx = a - 1
        if not lot[idx]:
            lot[idx] = True
            continue
        step = 1 if coins[i - 2] else -1
        j = (idx + step) % ring
        while lot[j]:
            j = (j + step) % ring
        lot[j] = True
    return lot.index(False) + 1


def naive_circular_dist_at(
    prefs: Sequence[int], p: Fraction
) -> "list[Fraction]":
    """Exact ring-model empty-spot distribution at rational ``p``.

    The forward branch (coin 1) carries weight p, matching the direction
    model on the line.
    """
    n = len(prefs)
    out = [Fraction(0)] * (n + 1)
    for coins in product((0, 1), repeat=max(n - 1, 0)):
        weight = Fraction(1)
        for c in coins:
            weight *= p if c else 1 - p
        out[naive_circular_empty(prefs, coins) - 1] += weight
    return out


def all_tuples(n: int) -> Iterator[tuple]:
    return product(range(1, n + 1), repeat=n)


def probe_points(n: int) -> "list[Fraction]":
    """Distinct rationals, enough to pin down any polynomial of degree < n + 1."""
    pts = [Fraction(0), Fraction(1), Fraction(1, 2)]
    d = 3
    while len(pts) < n + 1:
        pts.append(Fraction(1, d))
        d += 1
    return pts[: n + 1]
