"""Exhaustive sweeps over all n^n preference tuples and property verifiers.

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
they are exact (see _sweep). The transfer matrices are read off
the all-spot occupancy automaton of the Monte Carlo module
(montecarlo._automaton), so the census lands a blocked car by the same rule
as the simulation and the scalar walker core._park. Sweeps run one two-car
prefix at a time, which bounds the largest matrix at n^(n-2) rows; the
product and count buffers are allocated once per sweep and every prefix
overwrites them.
numpy is imported inside the functions that build and multiply the
matrices, not at module top, so the exact constructions and verifiers
below, which need no array, start without paying for it.

Also here: the staircase closed form and its inverses (the constructions
behind the odd-numerator uniqueness and dyadic surjectivity results), and
report-producing verifiers wired to the command-line `verify` subcommand.
A staircase's choice count is 2^(n-1) - 1 minus one power of two per block
remainder, so the inverse reads the staircase off the binary digits of the
target in O(n); every constructed tuple is re-checked by the exact point
count (exact.parking_choice_count).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .core import (
    DEFAULT_SEMANTICS,
    NaplesSemantics,
    RandomModel,
    _check_int,
    _park,
    _rule,
)
from .exact import Poly, _point_weight, _success_poly, parking_choice_count
from .montecarlo import _automaton
from .recursions import expected_random_naples, naples_count, parking_count

if TYPE_CHECKING:
    import numpy as np

CENSUS_DEFAULT_MAX_N = 7
CENSUS_HARD_MAX_N = 9
ODD_CENSUS_MAX_N = 8
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
    """

    n: int
    k: int
    semantics: NaplesSemantics
    counts: tuple[int, ...]

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
    (montecarlo._automaton), in its order. Matrix d has shape
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

    if n > FLOAT32_EXACT_MAX_N:
        raise ValueError(
            f"census products are exact in float32 only for n <= "
            f"{FLOAT32_EXACT_MAX_N}, got n={n}"
        )
    # No cell bound: all 2^n masks, 2n cells each, at n <= CENSUS_HARD_MAX_N.
    auto = _automaton(None, n, *rule, np.inf)
    mats = []
    for d, table in auto.steps:
        # The next layer's dead state is its width, and fills the last cell.
        width = int(table[-1])
        # Drop the two pad cells and the rows of this layer's dead state.
        cells = table[2:].reshape(-1, n, 2)[:-1]
        mat = np.zeros((len(cells), n * width), dtype=np.float32)
        for b in range(2 if d else 1):
            s, a = np.nonzero(cells[:, :, b] != width)
            mat[s, a * width + cells[s, a, b]] += 1
        mats.append(mat)
    return mats


def _sweep(mats: list, prefixes: Sequence[tuple[int, ...]]) -> Iterator[np.ndarray]:
    """Successful choice-vector counts of every tuple, one prefix at a time.

    All prefixes have one length. For each in turn, yields an int64 array
    over its n^(n - len(prefix)) completions in base-n order, the last car
    varying fastest. Row r of the depth-d state matrix holds the weights of
    the r-th prefix of length d; one product with the transfer matrix parks
    the next car for every letter at once.

    The product buffers of the swept depths and the count array are
    allocated once per sweep, and every prefix overwrites them: the array
    yielded is the same object each time, valid until the next prefix.

    The products run in float32 through BLAS and are exact. Every matrix
    entry is 0, 1 or 2 and every state weight is a nonnegative integer, so
    every product term and every partial sum of an output entry is an
    integer bounded by that entry, which counts choice-bit prefixes and so
    is at most 2^(n-1). float32 represents every integer up to 2^24, so for
    n <= FLOAT32_EXACT_MAX_N = 25 no rounding happens, in any summation
    order, with or without FMA, and at any BLAS thread count.
    _transfer_matrices refuses larger n. Each prefix's counts are cast into
    the int64 array at the end, for bincount and the parity test.
    """
    import numpy as np

    n = len(mats)
    swept = mats[len(prefixes[0]) :]
    bufs, rows = [], 1
    for mat in swept:
        bufs.append(np.empty((rows, mat.shape[1]), dtype=np.float32))
        rows *= n
    counts = np.empty(rows, dtype=np.int64)
    for prefix in prefixes:
        states = np.ones((1, 1), dtype=np.float32)
        for mat, a in zip(mats, prefix):
            width = mat.shape[1] // n
            states = states @ mat[:, (a - 1) * width : a * width]
        for mat, buf in zip(swept, bufs):
            states = np.matmul(states, mat, out=buf).reshape(-1, mat.shape[1] // n)
        np.copyto(counts, states.ravel(), casting="unsafe")
        yield counts


def _prefixes(n: int) -> list[tuple[int, ...]]:
    """The chunks a sweep is split into: all prefixes of its first two cars."""
    return list(product(range(1, n + 1), repeat=min(n, 2)))


def _census_histogram(n: int, rule: tuple, prefixes) -> np.ndarray:
    """Histogram of choice counts over every tuple extending one of prefixes."""
    import numpy as np

    hist = np.zeros((1 << (n - 1)) + 1, dtype=np.int64)
    for counts in _sweep(_transfer_matrices(n, rule), prefixes):
        hist += np.bincount(counts, minlength=len(hist))
    return hist


def full_census(
    n: int,
    k: int = 1,
    semantics: NaplesSemantics = DEFAULT_SEMANTICS,
    threads: int = 1,
    allow_large: bool = False,
) -> DistributionTable:
    """Distribution of parking probabilities at p = 1/2 over all n^n tuples.

    n is capped at 7 by default; n = 8 (8^8 = 16777216 tuples) and n = 9
    (387420489 tuples) are allowed with allow_large=True and take about a
    tenth of a second and about three and a half seconds in one process
    (2-core machine, BENCH_13.json); larger n is refused.
    The sweep runs the layered transfer kernel once per two-car prefix and
    bincounts each prefix's choice counts, so the result is independent of
    the thread count: workers take whole prefixes and the histograms add.

    Self-checks raise RuntimeError: the total is n^n, and wherever the
    counting recursion counts the rule (k = 1, or first-fit at any k) the
    full and zero counts and the expectation must match it.
    """
    _check_int(n, "car count n", 1)
    _check_int(k, "backward allowance k", 1)
    _check_int(threads, "threads", 1)
    rule = _rule(RandomModel.NAPLES, k, semantics)
    if n > CENSUS_HARD_MAX_N:
        raise ValueError(
            f"census at n={n} would sweep {n}^{n} = {n**n} tuples; "
            f"the supported maximum is {CENSUS_HARD_MAX_N}"
        )
    if n > CENSUS_DEFAULT_MAX_N and not allow_large:
        raise ValueError(
            f"census at n={n} sweeps {n**n} tuples and is gated; "
            "pass allow_large=True (--allow-large on the command line) to run it"
        )

    prefixes = _prefixes(n)
    if threads > 1 and n >= 4:
        # One task per first car's n prefixes, so the pool builds the
        # transfer matrices n times in all, not once per prefix.
        tasks = [(n, rule, prefixes[i : i + n]) for i in range(0, n * n, n)]
        # Load numpy before the pool forks, so that every worker inherits
        # it instead of importing it again.
        import multiprocessing

        import numpy  # noqa: F401

        with multiprocessing.Pool(processes=threads) as pool:
            hist = sum(pool.starmap(_census_histogram, tasks, chunksize=1))
    else:
        hist = _census_histogram(n, rule, prefixes)
    counts = tuple(hist.tolist())
    table = DistributionTable(n, k, NaplesSemantics(semantics), counts)

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

    def gen(remaining: int, acc: tuple[int, ...]) -> Iterator[StaircaseShape]:
        if remaining >= 2:
            yield StaircaseShape(acc + (remaining,))
        for part in range(1, remaining - 1):
            yield from gen(remaining - part, acc + (part,))

    return gen(n, ())


def staircase_choice_count(shape: StaircaseShape) -> int:
    """Closed-form count of successful choice vectors for a staircase tuple.

    Peeling the trailing block of m_2 2s off an n-car staircase contributes
    2^(n-1) - 2^(n-m_2) plus the count of the peeled (and value-shifted)
    remainder; a solid block of 2s contributes 2^(n-1) - 1. Unrolled, that
    is the alternating sum evaluated here. The result is always odd.
    """
    ms = shape.multiplicities
    rem = shape.n
    g = 0
    for m in ms[:-1]:
        g += (1 << (rem - 1)) - (1 << (rem - m))
        rem -= m
    g += (1 << (rem - 1)) - 1
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
    2^(n-1) - 2t (the closed-form inverse, O(n) at any n). The result is
    re-checked against the exact choice count before being returned.
    """
    _check_int(n, "car count n")
    _check_int(t, "t")
    if n < 2:
        raise ValueError(f"odd numerators need n >= 2, got {n}")
    if not 1 <= t <= 1 << (n - 2):
        raise ValueError(f"t must lie in [1, 2^{n-2}] = [1, {1 << (n-2)}], got {t}")
    alpha = _staircase_for_odd(n, t)
    if parking_choice_count(alpha) != 2 * t - 1:
        raise RuntimeError(f"closed form and replay disagree on {alpha}")
    return alpha


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


def verify_odd_census(n: int) -> VerificationReport:
    """Sweep all n^n tuples and confirm the odd-count structure.

    Checks: a tuple's choice count is odd exactly when the tuple is a
    staircase; the odd counts hit each of {1, 3, ..., 2^(n-1) - 1} exactly
    once; there are exactly 2^(n-2) staircases; and the closed form matches
    the swept count on every staircase. Findings map each odd numerator to
    its unique tuple. A staircase starts with two equal cars, so only the n
    chunks with prefix (a, a) are searched for staircases; on every other
    chunk each odd count is a parity violation.
    """
    _check_int(n, "car count n")
    if not 2 <= n <= ODD_CENSUS_MAX_N:
        raise ValueError(
            f"the exhaustive odd-count sweep supports 2 <= n <= {ODD_CENSUS_MAX_N}, got {n}"
        )
    import numpy as np

    mats = _transfer_matrices(n, _rule(RandomModel.NAPLES, 1, DEFAULT_SEMANTICS))
    # Row r of every chunk ends in the cars suffix[:, r]. In chunk (a, a) it
    # is a staircase when the suffix steps down by 0 or 1 to a final 2
    # (tail_ok) from a first car (head) of a or a - 1. At n = 2 there is no
    # suffix and (a, a) must end in 2 itself, which a head of 2 says.
    rows = n ** (n - 2)
    suffix = (np.indices((n,) * (n - 2), dtype=np.int8) + 1).reshape(n - 2, rows)
    steps = suffix[:-1] - suffix[1:]
    tail_ok = ((steps == 0) | (steps == 1)).all(axis=0) & (suffix[-1:] == 2).all(axis=0)
    head = suffix[0] if n > 2 else np.full(1, 2, dtype=np.int8)
    odd = np.empty(rows, dtype=bool)

    parity_violations = 0
    odd_map: dict[int, list[tuple[int, ...]]] = {}
    staircase_total = 0
    prefixes = _prefixes(n)
    for prefix, counts in zip(prefixes, _sweep(mats, prefixes)):
        np.bitwise_and(counts, 1, out=odd, casting="unsafe")
        a = prefix[0]
        if prefix[1] == a:
            stair = tail_ok & ((head == a) | (head == a - 1))
            staircase_total += int(np.count_nonzero(stair))
            parity_violations += int(np.count_nonzero(stair ^ odd))
        else:
            parity_violations += int(np.count_nonzero(odd))
        for i in np.flatnonzero(odd):
            odd_map.setdefault(int(counts[i]), []).append(
                prefix + tuple(suffix[:, i].tolist())
            )

    expected_odds = set(range(1, 1 << (n - 1), 2))
    bijection_ok = (
        set(odd_map) == expected_odds and all(len(v) == 1 for v in odd_map.values())
    )
    closed_form_bad = [
        shape
        for shape in iter_staircase_shapes(n)
        if odd_map.get(staircase_choice_count(shape), []) != [shape.expand()]
    ]

    checks = (
        CheckResult(
            "odd count iff staircase",
            not parity_violations,
            f"{n**n} tuples swept, {parity_violations} violations",
        ),
        CheckResult(
            "odd numerators each hit once",
            bijection_ok,
            f"{len(odd_map)} distinct odd numerators, expected {len(expected_odds)}",
        ),
        CheckResult(
            "staircase count",
            staircase_total == 1 << (n - 2),
            f"found {staircase_total}, expected {1 << (n - 2)}",
        ),
        CheckResult(
            "closed form matches sweep on staircases",
            not closed_form_bad,
            f"{len(closed_form_bad)} mismatching shapes",
        ),
    )
    findings = {g: tups[0] for g, tups in sorted(odd_map.items()) if len(tups) == 1}
    return VerificationReport("odd-census", checks, findings)


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
        checks.append(
            CheckResult(
                f"n={n}",
                ok,
                f"{lo} <= {mid} <= {hi}",
            )
        )
        findings[n] = {
            "parking": str(lo),
            "expected": str(mid),
            "midpoint": str(hi),
            "naples": str(naples),
        }
    return VerificationReport("sandwich", tuple(checks), findings)


def verify_monotonicity(
    n: int, samples: int = 100_000, seed: int = 0
) -> VerificationReport:
    """Flipping any forward bit to backward never breaks a successful parking.

    Exhaustive over every (tuple, choice vector, set bit) for n <= 5; above
    that, seeded random sampling of the same triple space. The rule under
    test is the k = 1 Naples branch. n below 2, samples below 1 or a
    negative seed (even where the sweep is exhaustive) raise ValueError.
    """
    _check_int(n, "car count n", 2)
    _check_int(samples, "samples", 1)
    _check_int(seed, "seed", 0)
    nbits = n - 1
    violations = 0
    if n <= 5:
        checked = 0
        for reversed_prefs in product(range(1, n + 1), repeat=n):
            prefs = reversed_prefs[::-1]
            table = [
                len(_park(prefs, beta, True, 1, False)) == n
                for beta in range(1 << nbits)
            ]
            for beta in range(1 << nbits):
                if not table[beta]:
                    continue
                b = beta
                while b:
                    low = b & -b
                    checked += 1
                    if not table[beta ^ low]:
                        violations += 1
                    b ^= low
        mode = f"exhaustive: {checked} single-bit flips of successful vectors"
    else:
        rng = Random(seed)
        for _ in range(samples):
            prefs = tuple(rng.randint(1, n) for _ in range(n))
            bit = 1 << rng.randrange(nbits)
            beta = rng.getrandbits(nbits) | bit
            parks = len(_park(prefs, beta, True, 1, False)) == n
            if parks and len(_park(prefs, beta ^ bit, True, 1, False)) < n:
                violations += 1
        mode = f"sampled: {samples} random flips, seed {seed}"
    checks = (
        CheckResult("forward-to-backward flips preserve parking", violations == 0, mode),
    )
    return VerificationReport("monotonicity", checks)


DIRECTION_TOTAL_MAX_N = 7


def verify_direction_total(n: int) -> VerificationReport:
    """Sum of random-direction parking probabilities is (n+1)^(n-1), exactly in p.

    Carries one polynomial per occupancy mask over every tuple in {1..n}^n
    at once (each car may prefer every spot), sums them, and compares the
    sum with the constant the closed form predicts. This is the strongest
    desk check of the expected-count identity for the direction model: it
    holds for all p.
    """
    _check_int(n, "car count n", 1)
    if n > DIRECTION_TOTAL_MAX_N:
        raise ValueError(
            f"the direction-total sweep supports 1 <= n <= {DIRECTION_TOTAL_MAX_N}, got {n}"
        )
    rule = _rule(RandomModel.DIRECTION, 0, DEFAULT_SEMANTICS)
    poly = _success_poly([range(1, n + 1)] * n, rule)
    expected = Poly.constant((n + 1) ** (n - 1))
    checks = (
        CheckResult(
            "probability sum is constant in p",
            poly == expected,
            f"n={n}: got {poly}, expected {expected}",
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
    _check_int(n, "car count n")
    if not 1 <= n <= 6:
        raise ValueError(f"the semantics sweep supports 1 <= n <= 6, got {n}")
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
