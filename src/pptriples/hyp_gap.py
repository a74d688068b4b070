"""Families of primitive triples (a, b, b+g) with a fixed hypotenuse gap g.

A gap g = c - b occurs in a primitive triple only when g is an odd square
m*m or twice a square 2*m*m.  Each admissible gap carries one infinite
family, indexed by n >= 1 and built from a parameter-pair table keyed on the
parity of the root m:

    odd square m*m      r = (2n+1+m)/2, s = (2n+1-m)/2   gcd(2n+1, m) = 1
    2*m*m, m odd        r = n,          s = m            gcd(n, m) = 1, n even
    2*m*m, m even       r = 2n+1,       s = m            gcd(2n+1, m) = 1

`_ROWS` keys the table on the multiplier k = step*n + start, and `_rows` is
its one statement of the members of a range of indices, from k and m.
Indices whose side conditions fail (k <= m among them) are skipped, so item
positions are stable.  The first legs of a family follow the progression
a = stride*n + offset.

The walk starts at the first index with k > m, found in closed form, and in
the 2*m*m, m odd row it visits only even n: an odd n fails the parity test,
so it is never tried, and every member keeps the position it has in a walk
over every index.

Families are infinite: `iter_g_family` yields members lazily, and the walk
builds and checks them a block of 64 indices at a time (`iter_g_blocks`
hands over the blocks' plain rows), so the cost of the first member does
not depend on how many follow and memory stays flat at any count.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from typing import Iterator, NamedTuple

from ._primes import InadmissibleError
from .triples import ParamPair, Triple, to_params

class GKind(enum.Enum):
    ODD_SQUARE = "odd-square"
    TWICE_SQUARE_ODD = "twice-square-odd-root"
    TWICE_SQUARE_EVEN = "twice-square-even-root"
    INADMISSIBLE = "inadmissible"


class GClass(NamedTuple):
    """Admissibility class of a gap, with its root m when admissible."""

    g: int
    kind: GKind
    m: int | None = None

    @property
    def admissible(self) -> bool:
        return self.kind is not GKind.INADMISSIBLE


class GFamilyItem(NamedTuple):
    """The n-th family member, with the fields of the `gen-g` row."""

    n: int
    k: int  # the multiplier step*n + start of the family's table row
    r: int
    s: int
    a: int
    b: int
    c: int
    stride: int
    offset: int

    @property
    def triple(self) -> Triple:
        return Triple(self.a, self.b, self.c)


def classify_g(g: int) -> GClass:
    """The unique admissibility class of g; the three kinds are disjoint."""
    if g < 1:
        raise ValueError(f"gap must be a positive integer, got {g}")
    root = g if g % 2 else g // 2  # g = m*m when odd, 2*m*m when even
    m = math.isqrt(root)
    if m * m == root:
        return _class_of(g, m)
    return GClass(g, GKind.INADMISSIBLE)


def _class_of(g: int, m: int) -> GClass:
    """The class of an admissible gap g with root m: g = m*m (odd) or 2*m*m."""
    if g % 2:
        return GClass(g, GKind.ODD_SQUARE, m)
    return GClass(g, GKind.TWICE_SQUARE_ODD if m % 2 else GKind.TWICE_SQUARE_EVEN, m)


# kind -> (leg, step, start): the multiplier k = step*n + start, first leg a = leg*m*k
_ROWS = {
    GKind.ODD_SQUARE: (1, 2, 1),
    GKind.TWICE_SQUARE_ODD: (2, 1, 0),
    GKind.TWICE_SQUARE_EVEN: (2, 2, 1),
}
# indices per block of the walk: a reader that stops early wastes at most one
# block, and a drained stream holds one (0.03 MB traced at 64, 0.11 MB at 256)
_BLOCK = 64
_item = functools.partial(tuple.__new__, GFamilyItem)  # `_rows` has checked the member


def _rows(gc: GClass, ns: range) -> list[tuple[int, ...]]:
    """The plain (n, k, r, s, a, b, c, stride, offset) rows of the indices ns
    of an admissible gc whose multiplier k passes: k > m, gcd(k, m) = 1 and,
    in a leg-2 row, k - m odd (else all are even).  A leg-1 row has r, s =
    (k+m)/2, (k-m)/2 and odd leg m*k first; a leg-2 row r, s = k, m and even
    leg 2*k*m first.  The block is checked as `ParamPair` and `Triple` check."""
    leg, step, start = _ROWS[gc.kind]
    m, mm, gcd = gc.m, gc.m * gc.m, math.gcd
    stride, offset = leg * m * step, leg * m * start
    if leg == 1:
        rows = [(n, k, (k + m) // 2, (k - m) // 2, m * k, ((kk := k * k) - mm) // 2,
                 (kk + mm) // 2, stride, offset)
                for n in ns if (k := step * n + start) > m and gcd(k, m) == 1]
    else:  # `family_member` may pass any index, so the parity test stays
        rows = [(n, k, k, m, 2 * k * m, (kk := k * k) - mm, kk + mm, stride, offset)
                for n in ns if (k := step * n + start) > m and (k - m) % 2 and gcd(k, m) == 1]
    if not all(0 < s < r and a * a + b * b == c * c for _, _, r, s, a, b, c, _, _ in rows):
        for _, _, r, s, a, b, c, _, _ in rows:  # raise the failed check's ValueError
            ParamPair(r, s)
            Triple(a, b, c)
    return rows


def _admissible(gc: GClass) -> GClass:
    """gc itself when admissible; else InadmissibleError naming the failed tests."""
    if not gc.admissible:
        raise InadmissibleError(f"g={gc.g} is inadmissible: not an odd square; not twice a square")
    return gc


def family_member(gc: GClass, n: int) -> GFamilyItem | None:
    """The member `iter_g_family` yields at index n, or None where `_rows`
    refuses the index.  An inadmissible gap raises InadmissibleError, and
    then an index below 1 ValueError."""
    _admissible(gc)
    if n < 1:
        raise ValueError(f"family index starts at 1, got {n}")
    rows = _rows(gc, range(n, n + 1))
    return GFamilyItem._make(rows[0]) if rows else None


def iter_g_family(g: int, count: int) -> Iterator[GFamilyItem]:
    """The first `count` members of the family for an admissible gap g,
    lazily, from the first index with k > m, found in closed form.  The gap
    and the count are checked when this is called, before the first member:
    an inadmissible gap raises InadmissibleError.

    Time is linear in `count`; memory is one block of members at a time."""
    return map(_item, itertools.chain.from_iterable(iter_g_blocks(g, count)))


def iter_g_blocks(g: int, count: int) -> Iterator[list[tuple[int, ...]]]:
    """`iter_g_family(g, count)` as the plain rows of `_rows`, one nonempty
    list per block of 64 indices, with the same checks at the call."""
    gc = _admissible(classify_g(g))
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return _blocks(gc, count)


def _blocks(gc: GClass, count: int) -> Iterator[list[tuple[int, ...]]]:
    """The first `count` rows of the family of an admissible gc, in index order.

    In a leg-2 row with an odd step (2*m*m, m odd: k = n), k changes parity
    with n, so only every other index can pair k with a root of the opposite
    parity.  The first index, k = m + 1, is one of them, and the walk steps
    over the others, which `_rows` would refuse."""
    leg, step, start = _ROWS[gc.kind]
    by = 2 if leg == 2 and step % 2 else 1
    n = (gc.m - start) // step + 1  # the least n with step*n + start > m
    while count > 0:
        if rows := _rows(gc, range(n, n + by * _BLOCK, by))[:count]:
            count -= len(rows)
            yield rows
        n += by * _BLOCK


def generate_g_family(g: int, count: int) -> list[GFamilyItem]:
    """`iter_g_family` as a list."""
    return list(iter_g_family(g, count))


def invert_to_family(t: Triple) -> tuple[GClass, int]:
    """Family coordinates (class, n) of a primitive triple read as (a, b, b+g).

    The parameter pair (r, s) of t gives both.  When b = 2rs is the even leg
    the gap is the odd square (r - s)**2 and the multiplier is k = r + s;
    otherwise the gap is 2*s*s and k = r.  The root (r - s, or s) comes off
    the pair too, so no square root of the gap is taken.  Non-primitive
    input, which has no parameter pair, raises ValueError.
    """
    r, s = to_params(t)
    even_b = t.b % 2 == 0
    gc = _class_of(t.c - t.b, r - s if even_b else s)
    _, step, start = _ROWS[gc.kind]
    k = r + s if even_b else r
    return gc, (k - start) // step
