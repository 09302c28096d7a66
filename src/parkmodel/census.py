"""The census of all n^n preference tuples, staircase constructions and verifiers.

The centerpiece is the distribution census: for every preference tuple,
count the choice vectors under which it parks (k-Naples branch rule) and
histogram those counts. Rather than replaying each of the 2^{n-1} choice
vectors per tuple, the census carries a weighted occupancy-state table: the
weight of an occupancy mask is the number of choice-bit prefixes that
produce it. A car whose preferred spot is free never consults its bit, so
its step doubles every weight; a blocked car splits each state into its
forward and backward branches, dropping the ones that fail. Car 1 has no
bit at all. After d cars every mask has popcount d, so the tables of all
n^d prefixes form one (n^d, C(n, d)) matrix, and one product with a
per-depth transfer matrix parks the next car under every letter at once
(the transfer-matrix form of the occupancy discipline). The products run
in float32 through BLAS; every weight is an integer of at most 2^(n-1), so
they are exact (see _census_rows). The transfer matrices are read off
the all-spot occupancy automaton of the Monte Carlo module
(montecarlo._all_spot_automaton), whose layer d is built in closed form as
every mask of popcount d, so the census lands a blocked car by the same
rule as the simulation and the scalar walker core._park. The one
traversal of the matrices is a DP over distinct rows (_census_rows):
prefixes that leave equal rows are merged before each product, by
montecarlo._distinct_rows (the fixed-tuple automaton's merge too: a
multiplicative hash of each row checked for exact equality), and each
merge's inverse map is kept, so any single tuple's count is an O(n)
walk. full_census bincounts that DP's final rows.
numpy, and the automaton and merge from the Monte Carlo module, are
imported inside the functions that build and multiply the matrices, not at
module top, so the exact constructions and verifiers below, which need no
array, load neither.

The odd-count verifiers need only parity, and run the exact step
(exact._park_car) instead: modulo 2 a car whose spot is free doubles its
state's weight and so kills it, which leaves at most n merged prefixes
per layer at k = 1 (_parity_census). verify_odd_census counts every
staircase exactly by exact._park_each, the package's one depth-first
walk, fed the letters a staircase prefix allows (_stair_letters).

Also here: the staircase closed form and its inverses (the constructions
behind the odd-numerator uniqueness and dyadic surjectivity results), and
report-producing verifiers wired to the command-line `verify` subcommand,
none of which builds a polynomial.
A staircase's choice count is 2^(n-1) - 1 minus one power of two per block
remainder, so the inverse reads the staircase off the binary digits of the
target in O(n); every constructed tuple is re-checked by the exact point
count (exact.parking_choice_count).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .core import (
    DEFAULT_SEMANTICS,
    NaplesSemantics,
    RandomModel,
    _check_int,
    _line_moves,
    _rule,
)
from .exact import (
    _kronecker_point,
    _park_car,
    _park_each,
    _point_weight,
    parking_choice_count,
)
from .recursions import expected_random_naples, naples_count, parking_count

if TYPE_CHECKING:
    import numpy as np

CENSUS_HARD_MAX_N = 9
# float32 holds every integer up to 2^24, and a choice count is at most
# 2^(n-1), so the census products are exact up to this car count.
FLOAT32_EXACT_MAX_N = 25


@dataclass(frozen=True)
class CheckResult:
    """One line of a verification report."""

    label: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verifier: named checks plus optional structured findings."""

    name: str
    checks: tuple[CheckResult, ...]
    findings: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class DistributionTable:
    """Histogram of parking-probability numerators over all n^n tuples.

    counts[a] is the number of preference tuples whose probability of
    parking at p = 1/2 is a / 2^(n-1); the tuple has length 2^(n-1) + 1.
    n and k must be ints >= 1, semantics a NaplesSemantics member or its
    value (stored as the member), and counts exactly 2^(n-1) + 1 ints >= 0
    (stored as a tuple); anything else raises ValueError.
    """

    n: int
    k: int
    semantics: NaplesSemantics
    counts: tuple[int, ...]

    def __post_init__(self):
        _check_int(self.n, "car count n", 1)
        _check_int(self.k, "backward allowance k", 1)
        object.__setattr__(self, "semantics", NaplesSemantics(self.semantics))
        counts = tuple(self.counts)
        # The bit length first, so a huge n builds no huge 2^(n-1).
        width = len(counts) - 1
        if width.bit_length() != self.n or width != self.denominator:
            raise ValueError(
                f"need 2^{self.n - 1} + 1 counts for {self.n} cars, got {len(counts)}"
            )
        for a, c in enumerate(counts):
            _check_int(c, f"count of numerator {a}", 0)
        object.__setattr__(self, "counts", counts)

    @property
    def denominator(self) -> int:
        return 1 << (self.n - 1)

    def count_for(self, numerator: int) -> int:
        """Number of tuples that park with probability numerator / denominator."""
        _check_int(numerator, "numerator", 0)
        if numerator > self.denominator:
            raise ValueError(
                f"numerator must be <= {self.denominator}, got {numerator}"
            )
        return self.counts[numerator]

    def total(self) -> int:
        return sum(self.counts)

    def expectation(self) -> Fraction:
        """Sum of probability times count: the expected number of tuples that park."""
        weighted = sum(a * c for a, c in enumerate(self.counts))
        return Fraction(weighted, self.denominator)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(enumerate(self.counts))


def _transfer_matrices(n: int, rule: tuple) -> list:
    """One float32 transfer matrix per depth d = 0..n-1 of core._rule's rule.

    After d cars every surviving occupancy mask has popcount d, so depth d
    has C(n, d) states: layer d of the all-spot automaton
    (montecarlo._all_spot_automaton), in its order, ascending as masks with
    spot j at bit n-1-j. Matrix d has shape
    (C(n, d), n * C(n, d+1)): column block a-1 moves car d+1, preferring
    spot a, from each depth-d mask to the masks it can fill. An entry counts
    the choice-bit values that make that move, read off car d+1's table:
    both bits land on one mask when spot a is free (the bit is never
    consulted), else each branch that does not reach the dead state adds
    one. Car 1 has no bit, so matrix 0 counts bit 0 only and holds 1.
    Every entry is therefore 0, 1 or 2. n above FLOAT32_EXACT_MAX_N raises
    ValueError before the automaton is built.
    """
    import numpy as np

    from .montecarlo import _all_spot_automaton

    if n > FLOAT32_EXACT_MAX_N:
        raise ValueError(
            f"census products are exact in float32 only for n <= "
            f"{FLOAT32_EXACT_MAX_N}, got n={n}"
        )
    # No cell bound: all 2^n masks, 2n cells each, at n <= CENSUS_HARD_MAX_N.
    auto = _all_spot_automaton(n, *rule, np.inf)
    mats = []
    for d, table in auto.steps:
        # The next layer's dead state is its width, and fills the last cell.
        width = int(table[-1])
        # Cells by (state, spot, bit), less the rows of this layer's dead state.
        cells = table.reshape(-1, n, 2)[:-1]
        mat = np.zeros((len(cells), n * width), dtype=np.float32)
        for b in range(2 if d else 1):
            s, a = np.nonzero(cells[:, :, b] != width)
            mat[s, a * width + cells[s, a, b]] += 1
        mats.append(mat)
    return mats


def _census_rows(n: int, rule: tuple) -> tuple[list, np.ndarray, np.ndarray]:
    """The census as a DP over distinct weighted occupancy rows.

    Row r of depth d holds the state weights of some prefixes of length d;
    one product with the transfer matrix parks the next car under every
    letter at once. Prefixes that leave equal rows have equal completions,
    so before each product equal rows are merged (_distinct_rows, with one
    set of multipliers for the widest layer) and each distinct row carries
    its prefix count: at most 1,942 rows per depth at n = 9, k = 1.

    Returns (steps, counts, weights). steps[d] is the merge's inverse map
    at depth d, so a tuple's final row is an O(n) walk,
    r = 0; r = steps[d][r] * n + a - 1 for each car d preferring a,
    and counts[r] is its choice count. weights[r] is the number of tuples
    whose walk ends on row r: n^n <= 9^9 < 2^53, so float64 adds them
    exactly.

    The products run in float32 through BLAS and are exact. Every matrix
    entry is 0, 1 or 2 and every state weight is a nonnegative integer, so
    every product term and every partial sum of an output entry is an
    integer bounded by that entry, which counts choice-bit prefixes and so
    is at most 2^(n-1). float32 represents every integer up to 2^24, so for
    n <= FLOAT32_EXACT_MAX_N = 25 no rounding happens, in any summation
    order, with or without FMA, and at any BLAS thread count.
    _transfer_matrices refuses larger n.
    """
    import numpy as np

    from .montecarlo import _distinct_rows, _row_multipliers

    mats = _transfer_matrices(n, rule)
    mult = _row_multipliers(max(len(mat) for mat in mats))
    states = np.ones((1, 1), dtype=np.float32)
    weights = np.ones(1)
    steps = []
    for mat in mats:
        first, inverse = _distinct_rows(states.view(np.uint32), mult)
        steps.append(inverse)
        weights = np.repeat(np.bincount(inverse, weights, len(first)), n)
        states = (states[first] @ mat).reshape(-1, mat.shape[1] // n)
    # The last layer has one mask: each row holds one count.
    return steps, states[:, 0].astype(np.int64), weights


def full_census(
    n: int, k: int = 1, semantics: NaplesSemantics = DEFAULT_SEMANTICS
) -> DistributionTable:
    """Distribution of parking probabilities at p = 1/2 over all n^n tuples.

    n runs up to CENSUS_HARD_MAX_N = 9 (387420489 tuples); larger n is
    refused. The histogram is a DP over the distinct weighted occupancy
    rows (_census_rows), so at k = 1, n = 8 takes about 4 ms and n = 9
    about 20 ms in one process (2-core machine, BENCH_22.json).

    Self-checks raise RuntimeError: the total is n^n, and wherever the
    counting recursion counts the rule (k = 1, or first-fit at any k) the
    full and zero counts and the expectation must match it.
    """
    _check_int(n, "car count n", 1)
    _check_int(k, "backward allowance k", 1)
    rule = _rule(RandomModel.NAPLES, k, semantics)
    if n > CENSUS_HARD_MAX_N:
        raise ValueError(
            f"census at n={n} would sweep {n}^{n} = {n**n} tuples; "
            f"the supported maximum is {CENSUS_HARD_MAX_N}"
        )
    import numpy as np

    _, counts, weights = _census_rows(n, rule)
    hist = np.bincount(counts, weights, (1 << (n - 1)) + 1).astype(np.int64)
    table = DistributionTable(n, k, semantics, hist.tolist())

    if table.total() != n**n:
        raise RuntimeError(f"census total is not {n}^{n}")
    # The recursion counts the rule at k = 1 and under first-fit (rule[2]).
    if k == 1 or rule[2]:
        if table.counts[-1] != parking_count(n):
            raise RuntimeError("full-probability count mismatch")
        if table.counts[0] != n**n - naples_count(n, k):
            raise RuntimeError("zero-probability count mismatch")
        if table.expectation() != expected_random_naples(n, k, Fraction(1, 2)):
            raise RuntimeError("census expectation disagrees with the recursion")
    return table


@dataclass(frozen=True)
class StaircaseShape:
    """Block multiplicities of a descending-run tuple ending in 2s.

    multiplicities[j] is the number of cars preferring spot j + 2, so the
    first entry counts the trailing 2s and the last entry counts the leading
    copies of the top value t = len(multiplicities) + 1. The expanded tuple
    is (t, ..., t, t-1, ..., 2, ..., 2); its first two entries coincide,
    which forces the last multiplicity to be at least 2.
    """

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        ms = self.multiplicities
        if not ms:
            raise ValueError("a staircase shape needs at least one block")
        if any(not isinstance(m, int) or isinstance(m, bool) or m < 1 for m in ms):
            raise ValueError(f"multiplicities must be positive integers: {ms}")
        if ms[-1] < 2:
            raise ValueError(
                f"the top block needs at least 2 cars (first two entries tie), got {ms}"
            )

    @property
    def n(self) -> int:
        return sum(self.multiplicities)

    @property
    def top(self) -> int:
        return len(self.multiplicities) + 1

    def expand(self) -> tuple[int, ...]:
        out = []
        for v in range(self.top, 1, -1):
            out.extend([v] * self.multiplicities[v - 2])
        return tuple(out)


def is_staircase(prefs: Sequence[int]) -> bool:
    """True for tuples with a[0] = a[1] >= ... >= a[-1] = 2 stepping by 0 or -1."""
    if len(prefs) < 2 or prefs[0] != prefs[1] or prefs[-1] != 2:
        return False
    return all(y in (x, x - 1) for x, y in zip(prefs[1:], prefs[2:]))


def shape_of(prefs: Sequence[int]) -> StaircaseShape:
    """Inverse of StaircaseShape.expand."""
    for i, a in enumerate(prefs, start=1):
        _check_int(a, f"preference of car {i}")
    if not is_staircase(prefs):
        raise ValueError(f"{tuple(prefs)} is not a staircase tuple")
    top = prefs[0]
    ms = [0] * (top - 1)
    for a in prefs:
        ms[a - 2] += 1
    return StaircaseShape(tuple(ms))


def iter_staircase_shapes(n: int) -> Iterator[StaircaseShape]:
    """All 2^(n-2) staircase shapes with n cars, in a fixed deterministic order."""
    _check_int(n, "car count n")
    if n < 2:
        raise ValueError(f"staircase tuples need n >= 2, got {n}")

    def gen() -> Iterator[StaircaseShape]:
        # Depth first, one shape per step (no generator per block): a top block
        # above 2 splits off a 1, and a leaf (b, c, 2) steps to (b + 1, c + 1).
        shape = [n]
        yield StaircaseShape((n,))
        while shape[-1] > 2 or len(shape) > 2:
            if shape[-1] > 2:
                shape[-1:] = [1, shape[-1] - 1]
            else:
                shape[-3:] = [shape[-3] + 1, shape[-2] + 1]
            yield StaircaseShape(tuple(shape))

    return gen()


def staircase_choice_count(shape: StaircaseShape) -> int:
    """Closed-form count of successful choice vectors for a staircase tuple.

    It is 2^(n-1) - 1 - sum_r 2^(r-1) over the block remainders r: the car
    counts left as each block below the top is peeled off, the trailing
    block of 2s first. _staircase_for_odd reads a staircase off this form.
    Every r is at least the top block's 2 cars, so the result is always odd.
    """
    g = (1 << (shape.n - 1)) - 1
    rest = shape.n
    for m in shape.multiplicities[:-1]:
        rest -= m
        g -= 1 << (rest - 1)
    if not g & 1:
        raise RuntimeError("staircase count came out even; the shape walk is broken")
    return g


def _staircase_for_odd(n: int, t: int) -> tuple[int, ...]:
    """The staircase with choice count 2t - 1, read off the closed form.

    Let r_1 > r_2 > ... >= 2 be the car counts left after each block is
    peeled off a staircase (see staircase_choice_count). Its count is
    2^(n-1) - 1 - sum_j 2^(r_j - 1), so the set bits j of 2^(n-1) - 2t name
    the remainders r = j + 1. The blocks are the differences of successive
    remainders, and the last block is the final remainder.
    """
    rest = (1 << (n - 1)) - 2 * t
    remainders = [j + 1 for j in range(rest.bit_length() - 1, 0, -1) if rest >> j & 1]
    cuts = [n, *remainders, 0]
    return StaircaseShape(tuple(a - b for a, b in zip(cuts, cuts[1:]))).expand()


def tuple_for_odd_numerator(n: int, t: int) -> tuple[int, ...]:
    """The unique n-tuple whose parking probability is (2t-1) / 2^(n-1).

    It is the staircase whose block remainders are the set bits of
    2^(n-1) - 2t (the closed-form inverse, O(n) at any n), built and
    re-checked by tuple_for_numerator.
    """
    _check_int(n, "car count n")
    _check_int(t, "t")
    if n < 2:
        raise ValueError(f"odd numerators need n >= 2, got {n}")
    if not 1 <= t <= 1 << (n - 2):
        raise ValueError(f"t must lie in [1, 2^{n-2}] = [1, {1 << (n-2)}], got {t}")
    return tuple_for_numerator(n, 2 * t - 1)


def tuple_for_numerator(n: int, a: int) -> tuple[int, ...]:
    """Some n-tuple whose parking probability is exactly a / 2^(n-1).

    Odd a comes from the staircase inverse; a = 2^(n-1) is any permutation
    (canonically all-ones); a = 0 is the all-n tuple, which exists only for
    n >= 3 (every 1- and 2-car tuple parks with positive probability). Even
    0 < a < 2^(n-1) with s trailing zero bits is (1, 2, ..., s) followed by
    the staircase for the odd a >> s on n - s cars, each entry shifted up
    by s: every car on a spot of its own halves nothing and doubles the
    denominator. The result is re-checked against the exact choice count.
    """
    _check_int(n, "car count n")
    _check_int(a, "numerator")
    if n < 1:
        raise ValueError(f"car count n must be positive, got {n}")
    top = 1 << (n - 1)
    if not 0 <= a <= top:
        raise ValueError(f"numerator must lie in [0, 2^{n-1}] = [0, {top}], got {a}")
    if a == top:
        alpha: tuple[int, ...] = (1,) * n
    elif a == 0:
        if n < 3:
            raise ValueError(
                f"every tuple with n={n} parks with positive probability; "
                "no zero-probability witness exists"
            )
        alpha = (n,) * n
    else:
        s = (a & -a).bit_length() - 1
        inner = _staircase_for_odd(n - s, ((a >> s) + 1) // 2)
        alpha = tuple(range(1, s + 1)) + tuple(x + s for x in inner)
    if parking_choice_count(alpha) != a:
        raise RuntimeError(f"constructed {alpha} misses numerator {a}")
    return alpha


def _check_sweep(n, what: str, hi: int, lo: int = 1) -> None:
    """Raise ValueError unless the car count n is an int in [lo, hi]."""
    _check_int(n, "car count n")
    if not lo <= n <= hi:
        raise ValueError(f"the {what} sweep supports {lo} <= n <= {hi}, got {n}")


def _stair_letters(n: int, d: int, last: int) -> list[int]:
    """Letters car d + 1 may prefer after a staircase prefix whose last letter is last.

    A staircase starts with a repeated letter a >= 2 and then steps by 0 or
    -1 down to 2: car 1 takes any a >= 2, car 2 repeats it, and later cars
    keep or lower the last letter. A letter above n + 1 - d could not step
    down to 2 in the cars left, so the n-letter words these letters build
    are exactly the staircases.
    """
    letters = range(2, n + 1) if not d else (last,) if d == 1 else (last, last - 1)
    return [a for a in letters if 2 <= a <= n + 1 - d]


def _parity_census(n: int, rule: tuple) -> tuple[int, int, int]:
    """(odd staircases, even staircases, other odd tuples): the census mod 2.

    A tuple's choice count is its point carry at p = 1/2, with steps (2, 1,
    1) for (free spot, forward, backward), and modulo 2 a free spot kills
    its state. So a prefix keeps only its set of odd masks, advanced one
    letter at a time by exact._park_car with steps (0, 1, 1), and prefixes
    merge when their sets and their staircase keys are equal: the last
    letter of a staircase prefix (_stair_letters), 0 for any other. A key
    with no odd mask and no staircase can only end even and is dropped.
    Each key carries its prefix count, a Python int, so any n is exact; at
    k = 1 a layer holds at most n keys. After car n the one mask left is
    the full lot, so a key's tuples are odd iff its set is nonempty. Any
    rule triple of core._rule is accepted.
    """
    moves = _line_moves(n, rule)
    first = _stair_letters(n, 0, 0)
    layer = {
        (frozenset((1 << (a - 1),)), a if a in first else 0): 1
        for a in range(1, n + 1)
    }
    for d in range(1, n):
        nxt: dict = {}
        for (masks, stair), weight in layer.items():
            states = dict.fromkeys(masks, 1)
            stairs = _stair_letters(n, d, stair) if stair else ()
            taken = 0
            for occ in masks:
                taken |= occ
            for a in range(1, n + 1):
                # A spot every state has free doubles every state: all even.
                if taken >> (a - 1) & 1:
                    new = _park_car(states, (a,), moves, (0, 1, 1))
                    odd = frozenset([occ for occ, v in new.items() if v & 1])
                else:
                    odd = frozenset()
                key = (odd, a if a in stairs else 0)
                if odd or key[1]:
                    nxt[key] = nxt.get(key, 0) + weight
        layer = nxt
    odd_stairs = even_stairs = others = 0
    for (masks, stair), weight in layer.items():
        if not stair:
            others += weight
        elif masks:
            odd_stairs += weight
        else:
            even_stairs += weight
    return odd_stairs, even_stairs, others


def _parity_rows(n: int, swept: str) -> tuple[CheckResult, CheckResult, int]:
    """The k = 1 parity census's two rows, and its count of other odd tuples.

    "odd count iff staircase" counts the staircases with an even count plus
    the other tuples with an odd one; "staircase count" compares the
    staircases among all n^n tuples with 2^(n-2). swept names the tuples.
    """
    rule = _rule(RandomModel.NAPLES, 1, DEFAULT_SEMANTICS)
    odd_stairs, even_stairs, others = _parity_census(n, rule)
    found, expected = odd_stairs + even_stairs, 1 << (n - 2)
    return (
        CheckResult(
            "odd count iff staircase",
            not (even_stairs or others),
            f"{swept} tuples swept, {even_stairs + others} violations",
        ),
        CheckResult(
            "staircase count",
            found == expected,
            f"found {found}, expected {expected}",
        ),
        others,
    )


ODD_CENSUS_MAX_N = 16


def verify_odd_census(n: int) -> VerificationReport:
    """Confirm the odd-count structure over all n^n tuples, 2 <= n <= 16.

    Checks: a tuple's choice count is odd exactly when the tuple is a
    staircase; the odd counts hit each of {1, 3, ..., 2^(n-1) - 1} exactly
    once; there are exactly 2^(n-2) staircases; and the closed form matches
    each staircase's exact count. Findings map each odd numerator to its
    unique tuple.

    The parity and staircase rows come from the parity census
    (_parity_rows), the others from every staircase's exact count, the
    point carry at p = 1/2 along exact._park_each fed the staircase
    letters (_stair_letters); no array is built. The census counts the other
    tuples with an odd count but not their counts, so on a failure the "odd
    numerators" detail and the findings count staircase numerators only.
    """
    _check_sweep(n, "exhaustive odd-count", ODD_CENSUS_MAX_N, 2)
    parity, staircases, others = _parity_rows(n, str(n**n))
    moves = _line_moves(n, _rule(RandomModel.NAPLES, 1, DEFAULT_SEMANTICS))
    walk = _park_each(
        n, lambda s: _stair_letters(n, len(s), s[-1] if s else 0), moves, 1, (2, 1, 1)
    )
    stairs = {alpha: sum(states.values()) for alpha, states in walk}
    hits = Counter(stairs.values())
    odd = [g for g in hits if g & 1]
    expected = 1 << (n - 2)
    closed_form_bad = 0
    for shape in iter_staircase_shapes(n):
        g = stairs.get(shape.expand())
        closed_form_bad += g != staircase_choice_count(shape) or hits[g] != 1

    checks = (
        parity,
        CheckResult(
            "odd numerators each hit once",
            not others and len(odd) == expected and all(hits[g] == 1 for g in odd),
            f"{len(odd)} distinct odd numerators, expected {expected}",
        ),
        staircases,
        CheckResult(
            "closed form matches sweep on staircases",
            not closed_form_bad,
            f"{closed_form_bad} mismatching shapes",
        ),
    )
    findings = dict(
        sorted((g, alpha) for alpha, g in stairs.items() if g & 1 and hits[g] == 1)
    )
    return VerificationReport("odd-census", checks, findings)


ODD_PARITY_MAX_N = 100
# verify_odd_parity re-checks this many staircases, drawn at this seed.
PARITY_SAMPLES = 64
PARITY_SEED = 2021


def verify_odd_parity(n: int) -> VerificationReport:
    """The odd-count theorem by the census mod 2, for 2 <= n <= 100.

    Rows: the tuples with an odd choice count are exactly the staircases,
    and there are 2^(n-2) of them, as many as odd numerators, both
    exhaustive over all n^n tuples by the parity census (_parity_rows); and
    on PARITY_SAMPLES distinct staircases drawn at PARITY_SEED (every
    staircase while there are no more), the closed form
    staircase_choice_count and the exact parking_choice_count both give the
    numerator 2t - 1 the staircase was drawn for. The closed form is injective (_staircase_for_odd
    inverts it), so together the rows put each odd numerator on exactly one
    tuple.
    """
    _check_sweep(n, "odd-parity", ODD_PARITY_MAX_N, 2)
    parity, staircases, _ = _parity_rows(n, f"{n}^{n}")
    total = 1 << (n - 2)
    if total <= PARITY_SAMPLES:
        ts, drawn = range(1, total + 1), f"all {total} staircases,"
    else:
        rng, ts = random.Random(PARITY_SEED), set()
        while len(ts) < PARITY_SAMPLES:
            ts.add(rng.randrange(total) + 1)
        drawn = f"{PARITY_SAMPLES} staircases drawn at seed {PARITY_SEED},"
    bad = 0
    for t in ts:
        alpha = _staircase_for_odd(n, t)
        counts = {staircase_choice_count(shape_of(alpha)), parking_choice_count(alpha)}
        bad += counts != {2 * t - 1}
    closed_form = CheckResult(
        "closed form matches exact count on drawn staircases",
        not bad,
        f"{drawn} {bad} mismatching",
    )
    return VerificationReport("odd-parity", (parity, staircases, closed_form))


def verify_sandwich(n_max: int) -> VerificationReport:
    """Check parking_count <= expected (k=1, p=1/2) <= midpoint for n up to n_max."""
    _check_int(n_max, "n_max", 1)
    half = Fraction(1, 2)
    checks = []
    findings: dict = {}
    for n in range(1, n_max + 1):
        lo = parking_count(n)
        mid = expected_random_naples(n, 1, half)
        naples = naples_count(n, 1)
        hi = Fraction(naples + lo, 2)
        ok = lo <= mid <= hi
        checks.append(CheckResult(f"n={n}", ok, f"{lo} <= {mid} <= {hi}"))
        findings[n] = {
            "parking": str(lo),
            "expected": str(mid),
            "midpoint": str(hi),
            "naples": str(naples),
        }
    return VerificationReport("sandwich", tuple(checks), findings)


MONOTONICITY_MAX_N = 12


def _flip_counts(n: int, rule: tuple) -> tuple[int, int]:
    """(checked, violations): single forward-to-backward flips of parking vectors.

    A DP over the all-spot automaton's tables T. A single state weighs the
    (prefix, choice bits) reaching it, car 1 reading bit 0 only. At car
    d+1 >= 2, state s and letter a start the pair (T[s, a, 1], T[s, a, 0]) of
    forward and backward runs with s's weight, unconsulted bits included;
    older pairs advance under one letter and bit on both sides. Pairs with a
    dead forward run drop, equal pairs merge by _distinct_rows, and weights
    add in exact int64 (np.bincount adds in float64). After car n, violations
    weigh the pairs whose backward run is dead.
    """
    import numpy as np

    from .montecarlo import _all_spot_automaton, _distinct_rows, _row_multipliers

    single = np.ones(1, dtype=np.int64)
    pairs, weights = np.zeros((0, 2), dtype=np.intp), single[:0]
    for d, table in _all_spot_automaton(n, *rule, np.inf).steps:
        # Cells by (state, spot, bit); dead is the next layer's dead state.
        cells, dead = table.reshape(-1, n, 2), int(table[-1])
        rows = [cells[pairs].transpose(0, 2, 3, 1).reshape(-1, 2)]
        adds = [np.repeat(weights, 2 * n)]
        if d:
            rows.append(cells[:-1, :, ::-1].reshape(-1, 2))
            adds.append(np.repeat(single, n))
        rows, adds = np.concatenate(rows), np.concatenate(adds)
        live = rows[:, 0] != dead
        rows, adds = rows[live], adds[live]
        first, inverse = _distinct_rows(rows.view(np.uintp), _row_multipliers(2))
        pairs, weights = rows[first], np.zeros(len(first), dtype=np.int64)
        np.add.at(weights, inverse, adds)
        bits = cells[:-1, :, : 2 if d else 1]
        nxt = np.zeros(dead + 1, dtype=np.int64)
        np.add.at(nxt, bits, np.broadcast_to(single[:, None, None], bits.shape))
        single = nxt[:-1]
    return int(weights.sum()), int(weights[pairs[:, 1] == dead].sum())


def verify_monotonicity(n: int) -> VerificationReport:
    """Flipping any forward bit to backward never breaks a successful parking.

    Exhaustive over every (tuple, parking choice vector, set bit) under the
    k = 1 Naples branch, by _flip_counts's pair DP. Its int64 weights count
    at most n^d * 2^(d-1) * (d-1) triples: below 2^63 through n = 12
    (2.0e17), not at 13, so n outside 2..MONOTONICITY_MAX_N raises ValueError.
    """
    _check_sweep(n, "monotonicity", MONOTONICITY_MAX_N, 2)
    checked, bad = _flip_counts(n, _rule(RandomModel.NAPLES, 1, DEFAULT_SEMANTICS))
    detail = f"exhaustive: {checked} single-bit flips of successful vectors"
    check = CheckResult("forward-to-backward flips preserve parking", not bad, detail)
    return VerificationReport("monotonicity", (check,))


DIRECTION_TOTAL_MAX_N = 7


def verify_direction_total(n: int) -> VerificationReport:
    """Sum of random-direction parking probabilities is (n+1)^(n-1), exactly in p.

    Carries one integer per occupancy mask, the polynomial at p = X
    (exact._kronecker_point), over every tuple in {1..n}^n at once, and
    compares the sum with the constant the closed form predicts; equal ints
    mean equal polynomials, so the identity holds for all p. On a pass the
    detail's "got" is that constant, on a failure the sum's value at X.
    """
    _check_sweep(n, "direction-total", DIRECTION_TOTAL_MAX_N)
    rule = _rule(RandomModel.DIRECTION, 0, DEFAULT_SEMANTICS)
    got = _point_weight([range(1, n + 1)] * n, rule, _kronecker_point(n), 1)
    expected = (n + 1) ** (n - 1)
    checks = (
        CheckResult(
            "probability sum is constant in p",
            got == expected,
            f"n={n}: got {got}, expected {expected}",
        ),
    )
    return VerificationReport("direction-total", checks)


def compare_naples_semantics(n: int, k: int) -> VerificationReport:
    """Report whether the two k-Naples backward readings diverge at (n, k).

    For k = 1 they provably coincide (one step back is one spot). For k >= 2
    the counting recursion can only match one of them; this sweep compares
    each semantics' expected count (the sum of all n^n tuples' probabilities
    at p = 1/2, one point carry over every letter) against the recursion and
    reports which one agrees.
    Informational rows never fail; the k = 1 coincidence row does.
    """
    _check_sweep(n, "semantics", 6)
    _check_int(k, "backward allowance k", 1)
    every = [range(1, n + 1)] * n
    sums = {}
    for semantics in NaplesSemantics:
        weight = _point_weight(every, _rule(RandomModel.NAPLES, k, semantics), 1, 2)
        sums[semantics.value] = Fraction(weight, 1 << (n - 1))
    recursion = expected_random_naples(n, k, Fraction(1, 2))
    if k == 1:
        jump, firstfit = sums["jump"], sums["firstfit"]
        checks = (
            CheckResult(
                "k=1 readings coincide",
                jump == firstfit,
                f"jump {jump}, firstfit {firstfit}",
            ),
            CheckResult(
                "k=1 matches recursion",
                jump == recursion,
                f"swept {jump}, recursion {recursion}",
            ),
        )
    else:
        checks = tuple(
            CheckResult(
                f"{name} vs recursion (informational)",
                True,
                f"swept {swept}, recursion {recursion}, "
                f"{'agree' if swept == recursion else 'disagree'}",
            )
            for name, swept in sums.items()
        )
    findings = {name: str(swept) for name, swept in sums.items()}
    findings["recursion"] = str(recursion)
    return VerificationReport("naples-semantics", checks, findings)
