"""Deterministic parking-lot semantics shared by both randomized models.

Spots are numbered 1..n from the entrance. Cars arrive in index order; car i
drives to its preferred spot and parks there when it is free. What a blocked
car does next depends on the rule in force:

* forward-only search (the classic rule),
* back up as many as k spots first, then search forward (the Naples rule),
* or, in the choice-driven replay, whatever its decision bit says.

Decision bits derandomize the two coin-flip models: bit value 1 always means
"search forward only", bit value 0 takes the backward branch of the model at
hand.  Car 1 never finds its spot taken, so a choice vector for n cars has
n-1 bits; bit j (0-based) of the integer belongs to car j+2.  Bits of cars
whose preferred spot is free are simply ignored.

Occupancy is a plain int bitmask of free spots: bit (s-1) set means spot s
is still free.

Every entry point that takes a model, k or Naples reading decodes them once,
by _rule, into the (naples, k, firstfit) triple the kernels of every module
take; DEFAULT_SEMANTICS is the one default reading of all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence


class NaplesSemantics(Enum):
    """How a blocked Naples car spends its backward allowance of k spots.

    Public entry points take a member or its value ("jump", "firstfit")
    and coerce it with NaplesSemantics(...); anything else is a ValueError.
    """

    JUMP_BACK_THEN_FORWARD = "jump"
    FIRST_FIT_BACKWARD = "firstfit"


class RandomModel(Enum):
    """Which randomized rule a decision bit stands in for.

    Accepted as a member or its value ("direction", "naples"), like
    NaplesSemantics.
    """

    DIRECTION = "direction"
    NAPLES = "naples"


DEFAULT_SEMANTICS = NaplesSemantics.JUMP_BACK_THEN_FORWARD


@dataclass(frozen=True)
class ParkingResult:
    """Outcome of one parking run.

    ``assignment`` maps car i to ``assignment[i-1]`` and is present exactly
    when every car parked; otherwise ``first_failed_car`` holds the 1-based
    index of the first car that could not park (the run stops there).
    """

    parked_all: bool
    assignment: Optional[tuple[int, ...]] = None
    first_failed_car: Optional[int] = None


def check_preferences(prefs: Sequence[int], capacity: int) -> None:
    """Raise ValueError unless every preference lies in 1..capacity."""
    if len(prefs) == 0:
        raise ValueError("preference tuple must have at least one car")
    for i, a in enumerate(prefs, start=1):
        if not isinstance(a, int) or isinstance(a, bool):
            raise ValueError(f"preference of car {i} is not an integer: {a!r}")
        if not 1 <= a <= capacity:
            raise ValueError(
                f"preference of car {i} is {a}, outside 1..{capacity}"
            )


def _check_int(value, name: str, minimum: int | None = None) -> None:
    """Raise ValueError unless value is an int (bools excluded) >= minimum.

    With no minimum only the type is checked, for callers whose own range
    check words the bound.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _rule(model, k, semantics) -> tuple[bool, int, bool]:
    """(naples, k, firstfit) of a rule given as members or values.

    Raises ValueError for an unknown model or reading, or unless k is an
    int >= 0, whatever the model: the one decoder of every entry point.
    """
    naples = RandomModel(model) is RandomModel.NAPLES
    firstfit = NaplesSemantics(semantics) is NaplesSemantics.FIRST_FIT_BACKWARD
    _check_int(k, "backward allowance k", 0)
    return naples, k, firstfit


def check_choice_bits(beta: int, n: int) -> None:
    """Raise ValueError unless beta is a valid (n-1)-bit choice vector."""
    if not isinstance(beta, int) or isinstance(beta, bool):
        raise ValueError(f"choice vector must be an int bitmask, got {beta!r}")
    if beta < 0 or beta >= 1 << (n - 1):
        raise ValueError(
            f"choice vector {beta} does not fit in {n - 1} bits for {n} cars"
        )


def _lowest_free_from(free: int, spot: int) -> int:
    """First free spot >= spot, or 0 when there is none."""
    m = free & ~((1 << (spot - 1)) - 1)
    return (m & -m).bit_length()


def _highest_free_upto(free: int, spot: int) -> int:
    """First free spot encountered scanning spot, spot-1, ..., 1; 0 if none."""
    m = free & ((1 << spot) - 1)
    return m.bit_length()


def _backward_spot(free: int, a: int, naples: bool, k: int, firstfit: bool) -> int:
    """Landing spot of a car blocked at a that takes the backward branch (bit 0).

    Direction: a backward-only search a-1, a-2, ..., 1.  Naples with jump
    semantics: move to max(a-k, 1) and search forward from there.  Naples
    with first-fit semantics: try a-1, a-2, ..., max(a-k, 1) one at a time
    and fall back to a forward search past a.  Returns 0 when the car fails.
    """
    if not naples:
        return _highest_free_upto(free, a - 1)
    start = a - k if a - k > 1 else 1
    if firstfit:
        window = free & ((1 << (a - 1)) - 1) & ~((1 << (start - 1)) - 1)
        if window:
            return window.bit_length()
        return _lowest_free_from(free, a + 1)
    return _lowest_free_from(free, start)


def _park(prefs, beta, naples, k, firstfit) -> list:
    """Spots taken by cars 1, 2, ... in turn, stopping at the first car that fails.

    Car i, blocked at its preferred spot, reads bit i-2 of beta: 1 searches
    forward only, 0 takes the backward branch (the k-spot backup under
    Naples, a backward-only search under direction). Every car parked iff
    the list has one spot per car. Inputs unvalidated.
    """
    free = (1 << len(prefs)) - 1
    spots = []
    # s is car i's preferred spot until a blocked car moves it to its landing.
    for i, s in enumerate(prefs, start=1):
        if not free >> (s - 1) & 1:
            if beta >> (i - 2) & 1:
                s = _lowest_free_from(free, s + 1)
            else:
                s = _backward_spot(free, s, naples, k, firstfit)
            if not s:
                break
        free ^= 1 << (s - 1)
        spots.append(s)
    return spots


def _result(spots: list, n: int) -> ParkingResult:
    if len(spots) == n:
        return ParkingResult(True, assignment=tuple(spots))
    return ParkingResult(False, first_failed_car=len(spots) + 1)


def park_forward(prefs: Sequence[int]) -> ParkingResult:
    """Classic rule: each car takes the first free spot at or past its preference."""
    n = len(prefs)
    check_preferences(prefs, n)
    return _result(_park(prefs, (1 << n) - 1, False, 0, False), n)


def park_naples_det(
    prefs: Sequence[int],
    k: int,
    semantics: NaplesSemantics = DEFAULT_SEMANTICS,
) -> ParkingResult:
    """Naples rule with every blocked car taking the backward branch.

    k = 0 degenerates to the classic forward-only rule.
    """
    n = len(prefs)
    check_preferences(prefs, n)
    return _result(_park(prefs, 0, *_rule(RandomModel.NAPLES, k, semantics)), n)


def _replay(prefs, beta, model, k, semantics) -> list:
    """_park under one choice vector, after checking every input."""
    n = len(prefs)
    check_preferences(prefs, n)
    check_choice_bits(beta, n)
    return _park(prefs, beta, *_rule(model, k, semantics))


def park_with_choices(
    prefs: Sequence[int],
    beta: int,
    model: RandomModel,
    k: int = 1,
    semantics: NaplesSemantics = DEFAULT_SEMANTICS,
) -> ParkingResult:
    """Deterministic replay of either random model under a fixed choice vector.

    A blocked car with bit 1 searches forward only.  With bit 0 it takes the
    model's backward branch: under DIRECTION a backward-only search that fails
    below spot 1 without retrying forward, under NAPLES the k-spot backup.
    """
    return _result(_replay(prefs, beta, model, k, semantics), len(prefs))


def parks_under_choices(
    prefs: Sequence[int],
    beta: int,
    model: RandomModel,
    k: int = 1,
    semantics: NaplesSemantics = DEFAULT_SEMANTICS,
) -> bool:
    """Boolean fast path of park_with_choices (no ParkingResult is built)."""
    return len(_replay(prefs, beta, model, k, semantics)) == len(prefs)
