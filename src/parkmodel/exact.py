"""Exact parking probabilities as integer-coefficient polynomials in p.

Both randomized rules flip one coin per blocked car, so the probability that
a fixed preference tuple parks is a sum, over the successful choice vectors,
of monomials p^a (1-p)^b.  It is built one car at a time over graded states
{mask: {(fwd, bwd): count}}, which merge every choice-vector prefix that
fills the same spots, so the work follows the reachable masks, not the 2^(n-1)
vectors.  Expanding each monomial keeps everything in exact integer
arithmetic; evaluation takes a Fraction and returns a Fraction.

Where only the value at one rational p = u/v is wanted, the same step
carries one integer weight per mask instead of the graded counts (the point
step, _point_weight): x v when the car's spot is free, x u on the p-branch,
x (v - u) on the other.  The probability is the summed weight over v^(n-1);
car 1 never meets a taken spot, so it has no coin.  At p = 1/2 the factors
are 2/1/1 and the weight counts successful choice vectors, which is how
parking_choice_count and prob_of_model_at avoid building a polynomial.

The coin is oriented per model: under the random-direction rule p is the
probability of the forward branch (bit 1), under the random Naples rule p is
the probability of the backward branch (bit 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb
from typing import Sequence

from .core import (
    NaplesSemantics,
    RandomModel,
    _check_int,
    _naples_branch_spot,
    _highest_free_upto,
    _lowest_free_from,
    check_preferences,
)


def _rational(p) -> Fraction:
    """p as a Fraction; floats are rejected on purpose (0.1 is not 1/10)."""
    if isinstance(p, float):
        raise TypeError("evaluate wants a Fraction or int, not a float")
    if isinstance(p, int) and not isinstance(p, bool):
        return Fraction(p)
    if not isinstance(p, Fraction):
        raise TypeError(f"cannot evaluate at {p!r}")
    return p


@dataclass(frozen=True)
class Poly:
    """Polynomial in one variable with integer coefficients.

    ``coeffs[i]`` multiplies p**i; the tuple is canonical (no trailing zeros,
    and the zero polynomial is the empty tuple).
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = self.coeffs
        if c and c[-1] == 0:
            while c and c[-1] == 0:
                c = c[:-1]
            object.__setattr__(self, "coeffs", tuple(c))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def constant(c: int) -> "Poly":
        return Poly((c,)) if c else Poly(())

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(tuple(out))

    def scale(self, c: int) -> "Poly":
        return Poly(tuple(c * x for x in self.coeffs))

    def evaluate(self, p: Fraction) -> Fraction:
        """Evaluate at an exact rational point.

        Floats are rejected on purpose: the whole module exists to avoid
        rounding, and 0.1 is not 1/10.
        """
        p = _rational(p)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "p" if i == 1 else f"p^{i}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


@lru_cache(maxsize=None)
def _weight_poly(p_exp: int, q_exp: int) -> Poly:
    """p**p_exp * (1-p)**q_exp expanded into the monomial basis."""
    out = [0] * (p_exp + q_exp + 1)
    for j in range(q_exp + 1):
        out[p_exp + j] = (-1) ** j * comb(q_exp, j)
    return Poly(tuple(out))


def _pour(states: dict, mask: int, grades: dict, shift: tuple[int, int]) -> None:
    """Add grades, shifted by (forward, backward) flips, to the state at mask."""
    dfwd, dbwd = shift
    into = states.get(mask)
    if into is None:
        states[mask] = {(f + dfwd, b + dbwd): c for (f, b), c in grades.items()}
        return
    for (f, b), c in grades.items():
        key = (f + dfwd, b + dbwd)
        into[key] = into.get(key, 0) + c


def _pour_weight(states: dict, mask: int, weight: int, factor: int) -> None:
    """Add weight, times the branch's factor, to the state at mask."""
    states[mask] = states.get(mask, 0) + weight * factor


def _park_car(states: dict, letters, moves, pour, steps) -> dict:
    """Transfer step: park one more car in every state.

    ``states`` maps an occupancy mask to its value; ``pour(new, mask, value,
    step)`` adds a value carried by one branch into the next states, where
    ``steps`` gives the (free spot, forward, backward) branches' step.  The
    car prefers each spot in ``letters`` in turn and the results are summed,
    so one spot advances one tuple and all n spots advance every tuple at
    once.  A blocked car lands on the (forward, backward) spots
    ``moves(occ, a)`` returns; 0 drops that branch.
    """
    free_step, fwd_step, bwd_step = steps
    new: dict = {}
    for occ, value in states.items():
        for a in letters:
            bit = 1 << (a - 1)
            if not occ & bit:
                pour(new, occ | bit, value, free_step)
                continue
            f, b = moves(occ, a)
            if f:
                pour(new, occ | 1 << (f - 1), value, fwd_step)
            if b:
                pour(new, occ | 1 << (b - 1), value, bwd_step)
    return new


def _park_all(
    cars, moves, start=None, pour=_pour, steps=((0, 0), (1, 0), (0, 1))
) -> dict:
    """States after parking every car; cars[i] lists car i's letters.

    The values are graded {(forward flips, backward flips): count} dicts by
    default; pass a start value, pour and steps to carry another value (see
    _point_weight).  Car 1 finds the lot empty and consults no coin, so it
    lands on its spot with the start value.
    """
    if start is None:
        start = {(0, 0): 1}
    states = {1 << (a - 1): start for a in cars[0]}
    for letters in cars[1:]:
        states = _park_car(states, letters, moves, pour, steps)
    return states


def _direction_backward(free: int, a: int) -> int:
    """Backward-only search of the random-direction rule; fails below spot 1."""
    return _highest_free_upto(free, a - 1) if a > 1 else 0


def _success_states(cars, backward_spot, **carry) -> dict:
    """States after parking cars (see _park_all for carry).

    A blocked car searches forward past its spot, or lands on
    ``backward_spot(free, a)`` (0 = the branch fails).
    """
    full = (1 << len(cars)) - 1

    def moves(occ: int, a: int) -> tuple[int, int]:
        free = ~occ & full
        return _lowest_free_from(free, a + 1), backward_spot(free, a)

    return _park_all(cars, moves, **carry)


def _success_branch_counts(cars, backward_spot) -> dict[tuple[int, int], int]:
    """Count successful choice vectors by (forward flips, backward flips).

    ``cars[i]`` lists the spots car i may prefer (see _park_car); the
    branches are those of _success_states.
    """
    counts: dict[tuple[int, int], int] = {}
    for grades in _success_states(cars, backward_spot).values():
        for key, c in grades.items():
            counts[key] = counts.get(key, 0) + c
    return counts


def _point_weight(cars, backward_spot, p_is_backward: bool, u: int, v: int) -> int:
    """v^(n-1) times the success probability at p = u/v, summed over the tuples.

    The point step: each state carries one integer weight instead of a
    graded count, multiplied by v when the car's spot is free (its coin is
    not consulted), by u on the p-branch and by v - u on the other branch.
    At p = 1/2 that is 2/1/1, so the weight counts successful choice vectors.
    """
    steps = (v, v - u, u) if p_is_backward else (v, u, v - u)
    states = _success_states(
        cars, backward_spot, start=1, pour=_pour_weight, steps=steps
    )
    return sum(states.values())


def _branch_counts_to_poly(counts, p_is_backward: bool) -> Poly:
    total = Poly.zero()
    for (fwd, bwd), mult in counts.items():
        if p_is_backward:
            w = _weight_poly(bwd, fwd)
        else:
            w = _weight_poly(fwd, bwd)
        total = total + w.scale(mult)
    return total


def _naples_backward(k: int, semantics: NaplesSemantics):
    """backward_spot of the random k-Naples rule under semantics."""
    _check_int(k, "backward allowance k", 0)
    firstfit = NaplesSemantics(semantics) is NaplesSemantics.FIRST_FIT_BACKWARD
    return partial(_naples_branch_spot, k=k, firstfit=firstfit)


def prob_random_direction(prefs: Sequence[int]) -> Poly:
    """Parking probability under the random-direction rule, exact in p.

    A blocked car searches forward with probability p and backward-only with
    probability 1-p; the backward search fails below spot 1.
    """
    check_preferences(prefs, len(prefs))
    counts = _success_branch_counts([(a,) for a in prefs], _direction_backward)
    return _branch_counts_to_poly(counts, p_is_backward=False)


def prob_random_naples(
    prefs: Sequence[int],
    k: int = 1,
    semantics: NaplesSemantics = NaplesSemantics.JUMP_BACK_THEN_FORWARD,
) -> Poly:
    """Parking probability under the random k-Naples rule, exact in p.

    A blocked car takes the k-spot backup branch with probability p and a
    plain forward search with probability 1-p.
    """
    check_preferences(prefs, len(prefs))
    backward = _naples_backward(k, semantics)
    counts = _success_branch_counts([(a,) for a in prefs], backward)
    return _branch_counts_to_poly(counts, p_is_backward=True)


def prob_of_model(
    prefs: Sequence[int],
    model: RandomModel,
    k: int = 1,
    semantics: NaplesSemantics = NaplesSemantics.JUMP_BACK_THEN_FORWARD,
) -> Poly:
    """Exact parking probability under model (a member or its value)."""
    semantics = NaplesSemantics(semantics)
    if RandomModel(model) is RandomModel.DIRECTION:
        return prob_random_direction(prefs)
    return prob_random_naples(prefs, k=k, semantics=semantics)


def prob_of_model_at(
    prefs: Sequence[int],
    model: RandomModel,
    p,
    k: int = 1,
    semantics: NaplesSemantics = NaplesSemantics.JUMP_BACK_THEN_FORWARD,
) -> Fraction:
    """prob_of_model(prefs, model, k, semantics).evaluate(p), exactly.

    Runs the point step at p = u/v (_point_weight), so no polynomial is
    built: the value is the summed weight over v^(n-1).  Any rational p is
    accepted, as by Poly.evaluate.
    """
    semantics = NaplesSemantics(semantics)
    direction = RandomModel(model) is RandomModel.DIRECTION
    check_preferences(prefs, len(prefs))
    backward = _direction_backward if direction else _naples_backward(k, semantics)
    p = _rational(p)
    u, v = p.numerator, p.denominator
    weight = _point_weight([(a,) for a in prefs], backward, not direction, u, v)
    return Fraction(weight, v ** (len(prefs) - 1))


def parking_choice_count(
    prefs: Sequence[int],
    k: int = 1,
    semantics: NaplesSemantics = NaplesSemantics.JUMP_BACK_THEN_FORWARD,
) -> int:
    """Number of the 2**(n-1) choice vectors that park prefs (Naples branch).

    Equals 2**(n-1) times the Naples parking probability at p = 1/2, and is
    counted directly by the point step at p = 1/2: a free spot doubles a
    state's weight and each landing branch keeps it.  The work follows the
    reachable occupancy masks with one integer each, so a 1000-car staircase
    takes milliseconds.
    """
    check_preferences(prefs, len(prefs))
    backward = _naples_backward(k, semantics)
    return _point_weight([(a,) for a in prefs], backward, True, 1, 2)
