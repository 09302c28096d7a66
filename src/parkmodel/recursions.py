"""Exact evaluation of the counting recursion behind both models.

Everything here is big-integer or Fraction arithmetic; no floats enter or
leave. One convolution recursion gives every count: condition on the spot
where the last car ends up, split the lot into the i spots left of it and
the n-i-1 spots right of it, and multiply the ways each side fills by the
weight of the last car's preferences, i + 1 + p * min(k, n-i-1): the i + 1
spots at or left of its landing spot, plus up to k spots right of it, from
which it backs up with probability p. Read at p = 0 it counts classic
parking functions (k drops out), at p = 1 the k-Naples parking functions
of Christensen, Harris et al. (Electron. J. Combin. 27, 2020), and at a
rational p in between it is the expected number of tuples that park under
the random k-Naples rule.

The right side is a classic forward-only lot of n-i-1 cars on n-i-1 spots,
contributing (n-i)**(n-i-2) preference tuples; at i = n-1 that expression
reads 1**(-1) and is defined to be 1 (the empty right side fills in exactly
one way), which needs its own code path because a negative integer exponent
would otherwise produce a float.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .core import _check_int


def _cluster_factor(m: int) -> int:
    """Ways m-1 cars fill m-1 spots forward-only on an m-spot window: m**(m-2)."""
    if m == 1:
        return 1
    return m ** (m - 2)


def as_fraction(p) -> Fraction:
    """Coerce an exact rational input to Fraction, rejecting floats."""
    if isinstance(p, float):
        raise TypeError(
            "p must be exact (Fraction or int); floats would silently round"
        )
    if isinstance(p, int) and not isinstance(p, bool):
        return Fraction(p)
    if isinstance(p, Fraction):
        return p
    raise TypeError(f"p must be a Fraction or int, got {p!r}")


@lru_cache(maxsize=None, typed=True)
def _expected_naples_rec(n: int, k: int, p):
    """Expected parking count of n cars, an int for int p and a Fraction otherwise.

    typed=True keeps int and Fraction arguments apart: Fraction(1) == 1 and
    both hash alike, so an untyped cache could hand a Fraction to an int
    count.
    """
    if n == 0:
        return 1
    return sum(
        comb(n - 1, i)
        * _expected_naples_rec(i, k, p)
        * _cluster_factor(n - i)
        * (i + 1 + p * min(k, n - i - 1))
        for i in range(n)
    )


def parking_count(n: int) -> int:
    """Number of classic parking functions of length n, (n+1)**(n-1).

    The recursion at p = 0 is evaluated too and must agree, so the closed
    form and the recursion cross-check each other on every call.
    """
    _check_int(n, "car count n", 1)
    closed = (n + 1) ** (n - 1)
    if _expected_naples_rec(n, 0, 0) != closed:
        raise RuntimeError(f"parking recursion disagrees at n={n}")
    return closed


def naples_count(n: int, k: int = 1) -> int:
    """Number of k-Naples parking functions of length n: the recursion at p = 1."""
    _check_int(n, "car count n", 1)
    _check_int(k, "backward allowance k", 0)
    return _expected_naples_rec(n, k, 1)


def expected_random_naples(n: int, k: int, p) -> Fraction:
    """Expected number of n-tuples that park under the random k-Naples rule.

    Exact rational for exact rational p; p = 0 collapses to parking_count
    and p = 1 to naples_count, as values (the result is always a Fraction).
    """
    _check_int(n, "car count n", 1)
    _check_int(k, "backward allowance k", 0)
    p = as_fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return _expected_naples_rec(n, k, p)


def expected_random_direction(n: int) -> int:
    """Expected number of n-tuples that park under the random-direction rule.

    Equal to the classic parking-function count for every choice of p, so
    this takes no p argument; the polynomial identity behind that fact is
    checked over all n^n tuples at once in census.verify_direction_total.
    """
    _check_int(n, "car count n", 1)
    return (n + 1) ** (n - 1)
