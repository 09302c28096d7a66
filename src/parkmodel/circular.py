"""Random-direction parking on a circle of n+1 spots.

Put n cars on a ring with one extra spot and the failure mode disappears: a
blocked car scans forward or backward around the ring and always finds a
spot, leaving exactly one spot empty at the end. The distribution of that
empty spot is the object of interest; summing its entries over all shifted
copies of a tuple is what makes the expected-count argument for the linear
model work. Preferences live in {1, ..., n+1} here, one more value than the
linear model allows.

The public distribution carries one Poly per occupancy mask.  The
exhaustive check verify_circular carries one integer per mask instead, the
polynomial's value at p = X = exact._kronecker_point(n), where equal
integers mean equal polynomials, so nothing is decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .census import CheckResult, VerificationReport, _check_sweep
from .core import (
    DEFAULT_SEMANTICS,
    RandomModel,
    _as_tuple,
    _check_int,
    _highest_free_upto,
    _line_moves,
    _lowest_free_from,
    _park,
    _rule,
    check_choice_bits,
    check_preferences,
)
from .exact import _POLY_FACTORS, Poly, _kronecker_point, _park_all, _park_each


@dataclass(frozen=True)
class EmptySpotDistribution:
    """Exact distribution of the one empty spot on the (n+1)-ring.

    probs[i] is the probability (a polynomial in p) that spot i + 1 is the
    empty one; the entries are Polys (stored as a tuple), they sum to the
    constant polynomial 1, and each lies in [0, 1] at p = 0 and at p = 1.
    Anything else raises ValueError.
    """

    n: int
    probs: tuple[Poly, ...]

    def __post_init__(self):
        _check_int(self.n, "car count n", 1)
        probs = _as_tuple(self.probs, "empty-spot entries")
        if len(probs) != self.n + 1:
            raise ValueError(
                f"need {self.n + 1} entries for {self.n} cars, got {len(probs)}"
            )
        for prob in probs:
            if not isinstance(prob, Poly):
                raise ValueError(f"empty-spot entries must be Polys, got {prob!r}")
        if sum(probs, Poly.zero()) != Poly.one():
            raise ValueError("empty-spot probabilities do not sum to 1")
        for spot, prob in enumerate(probs, start=1):
            # The values at p = 0 and p = 1: the constant and the coefficient sum.
            if not all(0 <= v <= 1 for v in (sum(prob.coeffs[:1]), sum(prob.coeffs))):
                raise ValueError(
                    f"the probability of spot {spot}, {prob}, leaves [0, 1] "
                    "at p = 0 or p = 1"
                )
        object.__setattr__(self, "probs", probs)

    def prob_for_spot(self, spot: int) -> Poly:
        _check_int(spot, "spot")
        if not 1 <= spot <= self.n + 1:
            raise ValueError(f"spot must lie in 1..{self.n + 1}, got {spot}")
        return self.probs[spot - 1]

    def rotated(self) -> "EmptySpotDistribution":
        """Distribution after every preference is shifted one spot clockwise."""
        return EmptySpotDistribution(self.n, (*self.probs[-1:], *self.probs[:-1]))


def shift_preferences(prefs: Sequence[int]) -> tuple[int, ...]:
    """Add 1 to every preference, wrapping n+1 around to 1."""
    ring = len(prefs) + 1
    check_preferences(prefs, ring)
    return _shift(prefs, ring)


def _shift(prefs: Sequence[int], ring: int) -> tuple[int, ...]:
    """shift_preferences without the check, for tuples already on the ring."""
    return tuple(a % ring + 1 for a in prefs)


def _ring_moves(ring: int):
    """The (forward, backward) landing spots of a car blocked on the ring.

    Forward takes the first free spot past a, wrapping round to spot 1;
    backward the first free spot below a, wrapping round to spot ring. The
    ring always keeps a free spot, so both exist.
    """
    full = (1 << ring) - 1

    def moves(occ: int, a: int) -> tuple[int, int]:
        free = ~occ & full
        return (
            _lowest_free_from(free, a + 1) or _lowest_free_from(free, 1),
            _highest_free_upto(free, a - 1) or _highest_free_upto(free, ring),
        )

    return moves


def circular_park(prefs: Sequence[int], beta: int) -> int:
    """Park n cars on the (n+1)-ring under fixed choices; return the empty spot.

    A blocked car with choice bit 1 scans forward around the ring, with bit 0
    backward; either way it parks, so the run never fails. This is core._park
    over the ring's moves: its n spots are distinct, so the empty spot is
    1 + 2 + ... + (n+1) less their sum.
    """
    ring = len(prefs) + 1
    check_preferences(prefs, ring)
    check_choice_bits(beta, ring - 1)
    return ring * (ring + 1) // 2 - sum(_park(prefs, beta, _ring_moves(ring)))


def _distribution(n: int, states: dict, zero) -> tuple:
    """Read the ring states after n cars: each mask leaves one spot empty.

    zero is the zero of the carried kind (Poly.zero() or 0), the value of a
    spot no state leaves empty.
    """
    ring = n + 1
    per_spot = [zero] * ring
    for occ, prob in states.items():
        per_spot[(~occ & ((1 << ring) - 1)).bit_length() - 1] = prob
    return tuple(per_spot)


def empty_spot_distribution(prefs: Sequence[int]) -> EmptySpotDistribution:
    """Exact empty-spot distribution with forward weight p, backward 1 - p.

    Runs the exact step car by car, carrying a Poly per occupancy mask,
    with the two ring scans as a blocked car's moves.
    """
    n = len(prefs)
    check_preferences(prefs, n + 1)
    cars = [(a,) for a in prefs]
    states = _park_all(cars, _ring_moves(n + 1), Poly.one(), _POLY_FACTORS)
    return EmptySpotDistribution(n, _distribution(n, states, Poly.zero()))


CIRCULAR_SWEEP_MAX_N = 4


def verify_circular(n: int) -> VerificationReport:
    """Sweep all (n+1)^n ring tuples and check the structural properties.

    Checked: every distribution sums to 1, tuple by tuple, since column sums
    alone would let errors in two tuples cancel; tuples naming spot n+1
    never leave it empty; shifting a tuple rotates its distribution; each
    spot's probability summed over all tuples is the constant (n+1)^(n-1);
    for linear-range tuples, the probability that spot n+1 stays empty
    equals the linear model's parking probability, as it must: the ring run
    follows the linear run until the first car the line cannot park, and
    that car wraps onto spot n+1.

    Both sweeps carry one integer per mask, the polynomial at p = X
    (exact._kronecker_point), with steps (1, X, 1 - X).  Every value
    compared, at most a column sum over the (n+1)^n tuples, and every
    target (1, 0, (n+1)^(n-1)) lies within its bound.
    """
    _check_sweep(n, "circular", CIRCULAR_SWEEP_MAX_N)
    ring = n + 1
    x = _kronecker_point(n)
    steps = (1, x, 1 - x)
    shift_bad = 0
    naming_bad = 0
    unnormalized = 0
    disagree = 0
    dists: dict[tuple[int, ...], tuple[int, ...]] = {}

    for prefs, states in _park_each(
        n, lambda _: range(1, ring + 1), _ring_moves(ring), 1, steps
    ):
        dist = dists[prefs] = _distribution(n, states, 0)
        # Over the reachable masks only: at most n + 1 terms, usually fewer.
        if sum(states.values()) != 1:
            unnormalized += 1
        if ring in prefs and dist[ring - 1] != 0:
            naming_bad += 1

    for prefs, dist in dists.items():
        if dists[_shift(prefs, ring)] != dist[-1:] + dist[:-1]:
            shift_bad += 1

    line = _line_moves(n, _rule(RandomModel.DIRECTION, 0, DEFAULT_SEMANTICS))
    for prefs, states in _park_each(n, lambda _: range(1, n + 1), line, 1, steps):
        if dists[prefs][ring - 1] != sum(states.values()):
            disagree += 1
    agree = n**n - disagree

    uniform = (n + 1) ** (n - 1)
    columns_ok = all(sum(col) == uniform for col in zip(*dists.values()))
    checks = (
        CheckResult(
            "distributions normalized",
            unnormalized == 0,
            f"{ring**n} tuples swept, {unnormalized} not summing to 1",
        ),
        CheckResult(
            "spot n+1 never empty when named",
            naming_bad == 0,
            f"{naming_bad} offending tuples",
        ),
        CheckResult(
            "shift rotates the distribution",
            shift_bad == 0,
            f"{shift_bad} offending tuples",
        ),
        CheckResult("per-spot column sums uniform", columns_ok, f"target {uniform}"),
        CheckResult(
            "linear agreement",
            disagree == 0,
            f"{agree} of {n**n} linear-range tuples match the "
            "linear parking probability",
        ),
    )
    findings = {"linear_agree": agree, "linear_disagree": disagree}
    return VerificationReport("circular-shift", checks, findings)
