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
from typing import Iterable, Iterator, NamedTuple


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


class TripleClass(NamedTuple):
    """Derived facts about a triple: primitivity, even leg and leg gap."""

    primitive: bool
    even_leg: str  # "a", "b" or "both"
    f: int  # absolute difference of the legs


def is_primitive(t: Triple) -> bool:
    """True iff gcd(a, b) = 1; a divisor of two entries divides the third."""
    return math.gcd(t.a, t.b) == 1


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


def classify_triple(t: Triple) -> TripleClass:
    return TripleClass(
        primitive=is_primitive(t),
        # two odd legs would make c*c = 2 mod 4, which no square is
        even_leg="b" if t.a % 2 else "a" if t.b % 2 else "both",
        f=abs(t.b - t.a),
    )


# A window of hypotenuses spans _WINDOW_ROOTS * isqrt(c_max) values, at least
# _WINDOW_FLOOR: it holds O(sqrt(c_max)) triples, and the per-window row
# scan, about 0.3 * sqrt(c_max) rows, stays a small share of its pairs.  Below
# 513**2 a window is the floor's, about 5,200 rows (0.8 MB traced), which a
# suite holds beside its own state, such as the g-coverage family streams.
_WINDOW_ROOTS = 64
_WINDOW_FLOOR = 1 << 15


def iter_ppt_rows(c_max: int) -> Iterator[tuple[int, int, int]]:
    """Every PPT with hypotenuse <= c_max as a plain (c, a, b) tuple, odd leg
    a first, in (c, a) order.

    Exhaustive over coprime opposite-parity parameter pairs; each triple
    appears exactly once.  Empty below the smallest hypotenuse 5.  The
    hypotenuses are swept one window [lo, hi) at a time, so only one
    window's rows are held at once.
    """
    width = max(_WINDOW_FLOOR, _WINDOW_ROOTS * math.isqrt(max(c_max, 0)))
    gcd, isqrt = math.gcd, math.isqrt
    lo = 0
    while lo <= c_max:
        hi = min(lo + width, c_max + 1)
        window: list[tuple[int, int, int]] = []
        # row r holds c = r*r + s*s for 0 < s < r, all below 2*r*r
        r = max(2, isqrt(lo // 2))
        while r * r + 1 < hi:
            rr = r * r
            s_lo = isqrt(lo - rr - 1) + 1 if lo > rr else 1
            s_lo += (s_lo + r + 1) % 2  # s of the opposite parity to r
            s_hi = min(r, isqrt(hi - 1 - rr) + 1)
            window += [
                (rr + s * s, rr - s * s, 2 * r * s)
                for s in range(s_lo, s_hi, 2)
                if gcd(r, s) == 1
            ]
            r += 1
        window.sort()  # (c, a) is unique to a primitive triple
        yield from window
        lo = hi


def enumerate_ppts(c_max: int) -> list[Triple]:
    """The rows of `iter_ppt_rows(c_max)` as validated `Triple`s, in its order."""
    return [Triple(a, b, c) for c, a, b in iter_ppt_rows(c_max)]
