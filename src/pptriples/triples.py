"""Pythagorean triples, the two-parameter form, and the brute-force enumerator.

A primitive Pythagorean triple (PPT) is (a, b, c) with a**2 + b**2 = c**2 and
no common divisor.  Every PPT arises as (r*r - s*s, 2*r*s, r*r + s*s) from a
coprime, opposite-parity pair 0 < s < r.  `iter_ppt_rows` enumerates them so
(`enumerate_ppts`: as a list of `Triple`s); a `verify` suite reads it only to
place and word a counterexample, as a passing one scans the pairs itself.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Iterator


class Triple(namedtuple("Triple", "a b c")):
    """An immutable Pythagorean triple; validates it on every constructor path."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> Triple:
        if a <= 0 or b <= 0 or c <= 0:
            raise ValueError(f"triple entries must be positive: {(a, b, c)}")
        if a * a + b * b != c * c:
            raise ValueError(f"not a Pythagorean triple: {(a, b, c)}")
        return tuple.__new__(cls, (a, b, c))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> Triple:
        # the base's _make, which _replace calls, would skip the check in __new__
        return cls(*iterable)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


class ParamPair(namedtuple("ParamPair", "r s")):
    """A parameter pair 0 < s < r for the classical triple form."""

    __slots__ = ()

    def __new__(cls, r: int, s: int) -> ParamPair:
        if not 0 < s < r:
            raise ValueError(f"need 0 < s < r, got r={r}, s={s}")
        return tuple.__new__(cls, (r, s))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> ParamPair:
        return cls(*iterable)


def to_params(t: Triple) -> ParamPair:
    """The unique parameter pair of a primitive triple.

    With o the odd leg, r*r = (c + o) / 2 and s*s = (c - o) / 2.  The pair
    is also the primitivity test, on numbers of half the size: t is
    primitive exactly when both are squares of a coprime, opposite-parity
    pair (a coprime pair of two odds yields a triple with all entries even).
    Non-primitive input raises ValueError.
    """
    odd = t.a if t.a % 2 else t.b
    r2, s2 = (t.c + odd) // 2, (t.c - odd) // 2
    r, s = math.isqrt(r2), math.isqrt(s2)
    if r * r != r2 or s * s != s2 or (r - s) % 2 == 0 or math.gcd(r, s) != 1:
        raise ValueError(f"{t} is not primitive; no parameter preimage")
    return ParamPair(r, s)


def iter_ppt_rows(c_max: int) -> Iterator[tuple[int, int, int]]:
    """Every PPT with hypotenuse <= c_max as a plain (c, a, b) tuple, odd leg
    a first, in (c, a) order.

    Exhaustive over coprime opposite-parity parameter pairs; each triple
    appears exactly once.  Empty below the smallest hypotenuse 5.  Row r
    yields its triples in rising c = r*r + s*s, and the rows are merged, so
    one pending triple per row is held at a time.
    """
    import heapq  # `check` and `gen-g` load this module but read no rows

    def row(r: int) -> Iterator[tuple[int, int, int]]:
        rr = r * r
        for s in range(r % 2 + 1, min(r, math.isqrt(c_max - rr) + 1), 2):
            if math.gcd(r, s) == 1:
                yield rr + s * s, rr - s * s, 2 * r * s

    yield from heapq.merge(*map(row, range(2, math.isqrt(max(c_max - 1, 0)) + 1)))


def enumerate_ppts(c_max: int) -> list[Triple]:
    """The rows of `iter_ppt_rows(c_max)` as validated `Triple`s, in its order."""
    return [Triple(a, b, c) for c, a, b in iter_ppt_rows(c_max)]
