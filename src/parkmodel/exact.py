"""Exact parking probabilities as integer-coefficient polynomials in p.

Both randomized rules flip one coin per blocked car, so the probability that
a fixed preference tuple parks is a sum, over the successful choice vectors,
of products of p and 1 - p.  It is built one car at a time over occupancy
masks, each carrying its Poly: a car multiplies the value by 1 when its spot
is free (car 1 never meets a taken spot, so it has no coin), by p or by
1 - p on the two branches of a blocked car, and states that fill the same
spots add up.  So the work follows the reachable masks, not the 2^(n-1)
choice vectors, and every step stays in exact integer arithmetic;
evaluation takes a Fraction and returns a Fraction.

Where only the value at one rational p = u/v is wanted, the same step
carries one integer per mask instead (the point carry, _point_weight):
x v when the car's spot is free, x u on the p-branch, x (v - u) on the
other.  The probability is the summed weight over v^(n-1).  At p = 1/2 the
factors are 2/1/1 and the weight counts successful choice vectors, which is
how parking_choice_count and prob_of_model_at avoid building a polynomial.
Letting a car prefer every spot at once gives the sum over all n^n tuples
in the same one walk.  At p = 2^B (_kronecker_point) the weight stands for
the polynomial itself, so the verifiers compare ints and build no Poly; a
Poly is carried only where one is returned (prob_of_model,
circular.empty_spot_distribution).  Every per-tuple sweep is the one
depth-first walk _park_each, which takes each car's letters from the
prefix before it and advances each shared prefix once.

The coin is oriented per model: under the random-direction rule p is the
probability of the forward branch (bit 1), under the random Naples rule p is
the probability of the backward branch (bit 0).  A blocked car lands by
core._line_moves, the landing rule the scalar walker core._park uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    DEFAULT_SEMANTICS,
    NaplesSemantics,
    RandomModel,
    _line_moves,
    _rule,
    check_preferences,
)
from .recursions import as_fraction


@dataclass(frozen=True)
class Poly:
    """Polynomial in one variable with integer coefficients.

    ``coeffs[i]`` multiplies p**i.  Any sequence of ints is stored as a
    canonical tuple (no trailing zeros, and the zero polynomial is the empty
    tuple), so equal polynomials compare and hash equal; any other
    coefficient, a bool or a float among them, raises ValueError.
    Multiplying by an int scales the coefficients, which lets the exact step
    carry a Poly or an int through the same ``value * factor``.  Arithmetic
    with anything but a Poly (or an int, for ``*``) raises TypeError.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(self.coeffs)
        for x in c:
            if type(x) is not int:
                raise ValueError(f"Poly coefficients must be integers, got {x!r}")
        object.__setattr__(self, "coeffs", _trim(c))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def constant(c: int) -> "Poly":
        return Poly((c,))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(tuple(out))

    def __neg__(self) -> "Poly":
        return _poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Poly | int") -> "Poly":
        """Product with a Poly, or with an int through scale."""
        if type(other) is int:
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _poly(())
        if len(a) < len(b):
            a, b = b, a
        # One pass over the longer factor per coefficient of the shorter one.
        out = [0] * (len(a) + len(b) - 1)
        for j, cb in enumerate(b):
            if cb:
                for i, ca in enumerate(a, j):
                    out[i] += ca * cb
        return _poly(tuple(out))

    def scale(self, c: int) -> "Poly":
        """c times self; scale(1) is self itself, so a unit factor costs nothing."""
        if c == 1:
            return self
        if type(c) is not int:
            raise ValueError(f"Poly scale factor must be an integer, got {c!r}")
        return _poly(tuple(c * x for x in self.coeffs))

    def evaluate(self, p: Fraction) -> Fraction:
        """Evaluate at an exact rational point.

        Floats are rejected on purpose: the whole module exists to avoid
        rounding, and 0.1 is not 1/10.
        """
        p = as_fraction(p)
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


def _trim(c: tuple) -> tuple:
    """c without trailing zeros: the canonical coefficients of a Poly."""
    while c and not c[-1]:
        c = c[:-1]
    return c


def _poly(c: tuple) -> Poly:
    """Poly(c) for arithmetic's results, whose ints need no check: only trimmed."""
    p = object.__new__(Poly)
    object.__setattr__(p, "coeffs", _trim(c))
    return p


# The (free spot, p-branch, (1 - p)-branch) factors of the polynomial carry.
_POLY_FACTORS = (1, Poly((0, 1)), Poly((1, -1)))


def _add(states: dict, mask: int, value) -> None:
    """Add value into the state at mask."""
    old = states.get(mask)
    states[mask] = value if old is None else old + value


def _park_car(states: dict, letters, moves, steps) -> dict:
    """Transfer step: park one more car in every state.

    ``states`` maps an occupancy mask to its carried value, a Poly or an
    int.  Each branch multiplies the value by its factor from ``steps`` =
    (free spot, forward, backward) and adds the product into the next
    state.  The car prefers each spot in ``letters`` in turn and the results
    are summed, so one spot advances one tuple and all n spots advance every
    tuple at once.  A blocked car lands on the (forward, backward) spots
    ``moves(occ, a)`` returns; 0 drops that branch.
    """
    free_step, fwd_step, bwd_step = steps
    new: dict = {}
    for occ, value in states.items():
        for a in letters:
            bit = 1 << (a - 1)
            if not occ & bit:
                _add(new, occ | bit, value * free_step)
                continue
            f, b = moves(occ, a)
            if f:
                _add(new, occ | 1 << (f - 1), value * fwd_step)
            if b:
                _add(new, occ | 1 << (b - 1), value * bwd_step)
    return new


def _park_all(cars, moves, one, steps) -> dict:
    """States after parking every car; cars[i] lists car i's letters.

    Car 1 finds the lot empty and consults no coin, so it lands on each of
    its letters with the value ``one``; _park_car advances the rest.
    """
    states = {1 << (a - 1): one for a in cars[0]}
    for letters in cars[1:]:
        states = _park_car(states, letters, moves, steps)
    return states


def _park_each(n, letters, moves, one, steps):
    """Yield (tuple, states) for every n-car tuple letters spans, depth first.

    letters(prefix) lists the spots the next car may prefer (car 1's:
    letters(())); tuples come in the order it lists them, and each prefix's
    states are advanced once, by _park_car.
    """
    stack = [((a,), {1 << (a - 1): one}) for a in reversed(letters(()))]
    while stack:
        prefix, states = stack.pop()
        if len(prefix) == n:
            yield prefix, states
            continue
        for a in reversed(letters(prefix)):
            stack.append((prefix + (a,), _park_car(states, (a,), moves, steps)))


def _success_sum(cars, rule, one, factors):
    """Carried value summed over every state after parking cars on the line.

    ``factors`` = (free spot, p-branch, (1 - p)-branch); the p-branch is the
    forward one under direction and the backward one under Naples.
    """
    free_f, p_f, q_f = factors
    steps = (free_f, q_f, p_f) if rule[0] else factors
    states = _park_all(cars, _line_moves(len(cars), rule), one, steps)
    # one * 0 is the zero of the carried kind: 0 or Poly.zero().
    return sum(states.values(), one * 0)


def _point_weight(cars, rule, u: int, v: int) -> int:
    """v^(n-1) times the success probability at p = u/v, summed over the tuples.

    The point carry: each state carries one integer, multiplied by v when
    the car's spot is free (its coin is not consulted), by u on the
    p-branch and by v - u on the other branch.  At p = 1/2 that is 2/1/1,
    so the weight counts successful choice vectors.
    """
    return _success_sum(cars, rule, 1, (v, u, v - u))


def _kronecker_point(n: int) -> int:
    """X = 2^B, B = bitlen((n+1)^n) + 2n + 1: where the verifiers' int carry runs.

    A tuple's probability of any outcome, ring or linear, sums at most
    2^(n-1) products of p and 1 - p, each with coefficients of absolute sum
    at most 2^(n-1), and a sum over at most (n+1)^n tuples has them below
    (n+1)^n * 4^(n-1) < X/2 (Kronecker substitution).  Two values below
    that bound differ by a polynomial with coefficients below X, which is 0
    at X only when it is 0: so int equality is polynomial equality.
    """
    return 1 << (((n + 1) ** n).bit_length() + 2 * n + 1)


def prob_random_direction(prefs: Sequence[int]) -> Poly:
    """Parking probability under the random-direction rule, exact in p.

    A blocked car searches forward with probability p and backward-only with
    probability 1-p; the backward search fails below spot 1.
    """
    return prob_of_model(prefs, RandomModel.DIRECTION)


def prob_random_naples(
    prefs: Sequence[int],
    k: int = 1,
    semantics: NaplesSemantics = DEFAULT_SEMANTICS,
) -> Poly:
    """Parking probability under the random k-Naples rule, exact in p.

    A blocked car takes the k-spot backup branch with probability p and a
    plain forward search with probability 1-p.
    """
    return prob_of_model(prefs, RandomModel.NAPLES, k, semantics)


def prob_of_model(
    prefs: Sequence[int],
    model: RandomModel,
    k: int = 1,
    semantics: NaplesSemantics = DEFAULT_SEMANTICS,
) -> Poly:
    """Exact parking probability under model (a member or its value)."""
    check_preferences(prefs, len(prefs))
    cars = [(a,) for a in prefs]
    return _success_sum(cars, _rule(model, k, semantics), Poly.one(), _POLY_FACTORS)


def prob_of_model_at(
    prefs: Sequence[int],
    model: RandomModel,
    p,
    k: int = 1,
    semantics: NaplesSemantics = DEFAULT_SEMANTICS,
) -> Fraction:
    """prob_of_model(prefs, model, k, semantics).evaluate(p), exactly.

    Runs the point carry at p = u/v (_point_weight), so no polynomial is
    built: the value is the summed weight over v^(n-1).  Any rational p is
    accepted, as by Poly.evaluate.
    """
    check_preferences(prefs, len(prefs))
    rule = _rule(model, k, semantics)
    p = as_fraction(p)
    u, v = p.numerator, p.denominator
    weight = _point_weight([(a,) for a in prefs], rule, u, v)
    return Fraction(weight, v ** (len(prefs) - 1))


def parking_choice_count(
    prefs: Sequence[int],
    k: int = 1,
    semantics: NaplesSemantics = DEFAULT_SEMANTICS,
) -> int:
    """Number of the 2**(n-1) choice vectors that park prefs (Naples branch).

    Equals 2**(n-1) times the Naples parking probability at p = 1/2, and is
    counted directly by the point carry at p = 1/2: a free spot doubles a
    state's weight and each landing branch keeps it.  The work follows the
    reachable occupancy masks with one integer each, so a 1000-car staircase
    takes milliseconds.
    """
    check_preferences(prefs, len(prefs))
    rule = _rule(RandomModel.NAPLES, k, semantics)
    return _point_weight([(a,) for a in prefs], rule, 1, 2)
