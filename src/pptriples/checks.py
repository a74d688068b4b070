"""Oracles: the bulk equivalence suites behind the CLI `verify` command,
and the referees and recurrences they run.

Each suite compares a closed-form or generator path against the exhaustive
triple enumerator (or, row for row, the leg-gap referee `leg_gap_rows`, a
direct search over the parameter s for the triples with given leg gaps,
inclusion-exclusion pair counts, or the A/B delta recurrences) at a
caller-chosen bound.  The f-coverage, pell and density-cross suites yield
one case per check, None or a counterexample, and one runner reports the
number of checks up to the first counterexample.  Nonexistence and
g-coverage count their checks themselves and yield no case on a pass:
nonexistence counts its rows, and g-coverage checks every member of each
gap's stream on its own and then compares one count with the referee's.
Both coverage suites read each referee row against the next member of its
own gap's stream, f-coverage always and g-coverage only on a failure, to
count and word the first counterexample.  Each suite imports the layers
it runs when it runs.  Nothing on the library's fast paths imports this
module; of the CLI commands only `verify` loads it.  The identities and
rechecks that only the tests use live in `tests/oracles.py`.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    from .zsqrt2 import QuadInt

__all__ = [
    "CheckReport",
    "check_g_coverage",
    "check_f_coverage",
    "check_nonexistence",
    "check_pell",
    "check_density_cross",
    "leg_gap_rows",
    "pair_count_rows",
    "RecurrencePair",
    "odd_part",
]

HYP_GAP_SAMPLE = (3, 5, 6, 7, 10, 11, 12)
LEG_GAP_SAMPLE = (3, 5, 11, 13, 19, 21)
PELL_Y_MAX = 100_000  # the exhaustive converse of `check_pell` runs over 0 < y <= this


class CheckReport(NamedTuple):
    scope: str
    checks: int
    failures: int
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _first_failure(scope: str, cases: Iterable[str | None]) -> CheckReport:
    """Count the cases, each None or a counterexample, up to the first counterexample."""
    checks = 0
    for counterexample in cases:
        checks += 1
        if counterexample is not None:
            return CheckReport(scope, checks, 1, counterexample)
    return CheckReport(scope, checks, 0)


def check_g_coverage(c_max: int) -> CheckReport:
    """Each gap's family stream, read up to c_max, equals the referee's rows.

    Every PPT with c <= c_max has two gaps: c minus its even leg, an odd
    square m*m, and c minus its odd leg, twice a square 2*m*m, both at most
    c_max.  So there are 2*N pairs (PPT with c <= c_max, one of its gaps),
    N the number of PPTs up to the bound, and a pass counts 2*N checks.
    Each gap's stream (`hyp_gap.iter_g_family`, unbounded) is read alone, up
    to its first member with c > c_max, and each member (a, b, c) must have
    c above the member before it, c - b = g, a > 0, b > 0, a*a + b*b = c*c
    and gcd(a, b) = 1.  Such a member names the pair (its triple, g), and
    the rising c keeps the members of one stream apart, so the members of
    all the streams are distinct pairs: 2*N of them exactly when every pair
    is a member, that is when each stream in index order is its gap's rows
    of `iter_ppt_rows(c_max)` in the referee's order.  N comes from the scan
    of the parameter pairs that `check_nonexistence` walks (`_pair_scan`).
    Only when a member fails, or the count differs, are fresh streams read
    row for row against the referee (`_g_coverage_by_rows`), which counts
    the checks up to the first counterexample and words it.  Time is linear
    in c_max; memory is one stream at a time.
    """
    from . import hyp_gap

    gcd, legs = math.gcd, attrgetter("a", "b", "c")
    members = 0
    for g in itertools.chain(*_hyp_gaps(c_max)):
        last = 0
        for a, b, c in map(legs, hyp_gap.iter_g_family(g, sys.maxsize + 1)):
            if c > c_max:
                break
            if not (last < c == b + g and a > 0 < b and a * a + b * b == c * c and gcd(a, b) == 1):
                return _g_coverage_by_rows(c_max)
            last = c
            members += 1
    if members != 2 * _pair_scan(c_max, set(), set())[0]:
        return _g_coverage_by_rows(c_max)
    return CheckReport("g-coverage", members, 0)


def _hyp_gaps(c_max: int) -> tuple[Iterator[int], Iterator[int]]:
    """The odd squares m*m and the twice squares 2*m*m up to c_max, lazily:
    every gap c - b of a PPT (a, b, c) with c <= c_max is one of them."""
    bound = max(c_max, 0)
    return (
        (m * m for m in range(1, math.isqrt(bound) + 1, 2)),
        (2 * m * m for m in range(1, math.isqrt(bound // 2) + 1)),
    )


def _g_coverage_by_rows(c_max: int) -> CheckReport:
    """`check_g_coverage` row for row, on fresh streams.

    Each row (c, odd, even) of `iter_ppt_rows(c_max)` counts as two checks:
    (odd, even, c) must be the next member of the odd-square family of
    g = c - even, then (even, odd, c) the next of the twice-square family of
    g = c - odd.  A missing, repeated, extra or misplaced member fails at
    the next row of its gap.  Memory is about 1.2 * sqrt(c_max) live streams
    beside the referee's window.
    """
    from . import hyp_gap
    from .triples import iter_ppt_rows

    def streams(gaps: Iterable[int], row: attrgetter) -> dict[int, Iterator[tuple]]:
        return {g: map(row, hyp_gap.iter_g_family(g, sys.maxsize + 1)) for g in gaps}

    odd_gaps, twice_gaps = _hyp_gaps(c_max)
    odd = streams(odd_gaps, attrgetter("c", "a", "b"))
    twice = streams(twice_gaps, attrgetter("c", "b", "a"))
    return _first_failure("g-coverage", _coverage_cases(iter_ppt_rows(c_max), c_max, (
        (odd, lambda row: row[0] - row[2], partial(_g_mismatch, kind="odd-square")),
        (twice, lambda row: row[0] - row[1], partial(_g_mismatch, kind="twice-square")),
    )))


def _coverage_cases(rows: Iterable[tuple], c_max: int, sets: tuple) -> Iterator[str | None]:
    """The coverage cases of referee rows (c, ...) against streams of rows.

    A set is (streams by gap, a row's gap, the counterexample of a referee
    row and a stream row that differ).  For each row and each set, the next
    row of the stream of the row's gap must equal it; a stream that has
    ended reads None.  After the last row, each stream's next row must lie
    past c_max: a case only when it does not.
    """
    for row in rows:
        for streams, gap_of, mismatch in sets:
            got = next(streams[gap_of(row)], None)
            yield None if got == row else mismatch(row, got)
    for streams, _, mismatch in sets:
        for rest in streams.values():
            got = next(rest, None)
            if got is not None and got[0] <= c_max:
                yield mismatch(None, got)


def _g_mismatch(want: tuple | None, got: tuple | None, kind: str) -> str:
    """The first in row order of a referee and a family row that differ, as
    a triple in the family's leg order: the odd leg first for odd squares."""
    c, odd, even = row = min(filter(None, (want, got)))
    a, b = (odd, even) if kind == "odd-square" else (even, odd)
    how = f"missing from the g={c - b} family" if row == want else f"is extra in the {kind} streams"
    return f"({a}, {b}, {c}) {how}"


def leg_gap_rows(c_max: int, gaps: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """Every PPT with hypotenuse <= c_max and |a - b| in gaps as a plain
    (c, a, b) tuple, odd leg a first, in (c, a) order: the rows of
    `iter_ppt_rows(c_max)` with those leg gaps.

    For a coprime, opposite-parity pair r > s, a - b = t*t - 2*s*s with
    t = r - s odd and gcd(t, s) = gcd(r, s) = 1.  So for each s with
    2*s*s < c_max (c = (s + t)**2 + s*s exceeds 2*s*s) and each gap f, the
    t*t = 2*s*s +/- f that are squares give every such triple once:
    O(sqrt(c_max) * len(gaps)) isqrt calls, with no Z[sqrt(2)] arithmetic.
    """
    fs = {f for f in gaps if f > 0}
    gcd, isqrt = math.gcd, math.isqrt
    rows = []
    s = 1
    while 2 * s * s < c_max:
        twice = 2 * s * s
        for f in fs:
            for tt in (twice - f, twice + f):
                t = isqrt(max(tt, 0))
                if t * t == tt and t % 2 and gcd(t, s) == 1:
                    r = s + t
                    c = r * r + s * s
                    if c <= c_max:
                        rows.append((c, c - twice, 2 * r * s))
        s += 1
    rows.sort()  # (c, a) is unique to a primitive triple
    yield from rows


def check_f_coverage(c_max: int, gaps: tuple[int, ...] = (1, 7, 17)) -> CheckReport:
    """Each sampled gap's leg-gap stream, up to c_max, equals the referee's rows.

    Each gap's stream (`iter_f_triples`, unbounded) ascends in c and is read
    up to its first triple with c > c_max.  Each row of `leg_gap_rows` must
    be the next triple, odd leg first, of its gap's stream, and no stream
    may have more up to c_max, so a missing, extra or repeated triple fails.
    """
    from . import leg_gap

    streams = {}
    for f in dict.fromkeys(gaps):
        triples = leg_gap.iter_f_triples(leg_gap.admissible_f(f), -sys.maxsize - 1, sys.maxsize)
        streams[f] = ((c, a, b) if a % 2 else (c, b, a) for (a, b, c), *_ in triples)
    return _first_failure("f-coverage", _coverage_cases(
        leg_gap_rows(c_max, gaps), c_max, ((streams, lambda row: abs(row[1] - row[2]), _mismatch),)
    ))


def _mismatch(want: tuple[int, int, int] | None, got: tuple[int, int, int] | None) -> str:
    """The first in row order of a referee and a generated row that differ."""
    c, a, b = row = min(filter(None, (want, got)))
    how = f"missing from the f={abs(a - b)} sweep" if row == want else "is extra in the sweep"
    return f"({min(a, b)}, {max(a, b)}, {c}) {how}"


def check_nonexistence(
    c_max: int,
    hyp_gaps: tuple[int, ...] = HYP_GAP_SAMPLE,
    leg_gaps: tuple[int, ...] = LEG_GAP_SAMPLE,
) -> CheckReport:
    """No enumerated triple carries an inadmissible hypotenuse or leg gap.

    Each row of `_pair_scan` is one check of its three gaps, c - a and c - b
    against `hyp_gaps` and |a - b| against `leg_gaps`.  A pass counts the
    rows and holds no row, so memory is O(1).  A failure reports the least
    failing row in (c, a) order, counted at its place in `iter_ppt_rows`.
    """
    hyp = set(hyp_gaps)
    rows, failed = _pair_scan(c_max, hyp, set(leg_gaps))
    if failed is None:
        return CheckReport("nonexistence", rows, 0)
    from .triples import iter_ppt_rows

    c, a, b = failed
    gap = next((g for g in (c - a, c - b) if g in hyp), None)
    text = f"hypotenuse gap {gap}" if gap is not None else f"leg gap {abs(a - b)}"
    place = next(n for n, row in enumerate(iter_ppt_rows(c), 1) if row == failed)
    return CheckReport("nonexistence", place, 1, f"({a}, {b}, {c}) has {text}")


def _pair_scan(
    c_max: int, hyp: set[int], leg: set[int]
) -> tuple[int, tuple[int, int, int] | None]:
    """The number of PPTs with c <= c_max, and the least (c, a, b) among
    them in (c, a) order with c - a or c - b in hyp or |a - b| in leg.

    The PPTs are the rows of `triples.iter_ppt_rows(c_max)`, visited in
    r-major order: the coprime, opposite-parity pairs 0 < s < r with
    r*r + s*s <= c_max, each the triple a = r*r - s*s, b = 2*r*s,
    c = r*r + s*s, with c - a = 2*s*s, c - b = (r - s)**2 and
    |a - b| = |(r - s)**2 - 2*s*s|.  Along one c, a rises with r, so the
    first failing row at a c is its least, and only smaller c are scanned
    after it: the count is exact only when no row fails.
    """
    gcd, isqrt = math.gcd, math.isqrt
    rows, failed, bound, r = 0, None, c_max, 2
    while r * r < bound:
        rr = r * r
        for s in range(r % 2 + 1, min(r, isqrt(bound - rr) + 1), 2):
            if gcd(r, s) == 1:
                rows += 1
                twice, square = 2 * s * s, (r - s) ** 2
                if twice in hyp or square in hyp or abs(square - twice) in leg:
                    failed = rr + s * s, rr - s * s, 2 * r * s
                    bound = failed[0] - 1
                    break
        r += 1
    return rows, failed


class RecurrencePair(NamedTuple):
    n: int
    A: int
    B: int


def _recurrence_pairs(n_max: int) -> Iterator[RecurrencePair]:
    """The coefficient pairs for n = 0..n_max, each stepped once from the two
    before it, starting from n = -1 (A = 3, B = -2) and n = 0."""
    a_prev, a, b_prev, b = 3, 1, -2, 0
    for n in range(n_max + 1):
        yield RecurrencePair(n, a, b)
        a_prev, a = a, 6 * a - a_prev
        b_prev, b = b, 6 * b - b_prev


def _apply_pair(t: QuadInt, rc: RecurrencePair) -> QuadInt:
    """t * DELTA**rc.n from the coefficient pair rc."""
    j, k = t.x, t.y
    return type(t)(rc.A * j + 2 * rc.B * k, rc.A * k + rc.B * j)


def check_pell(m_max: int) -> CheckReport:
    """GAMMA * DELTA**m solves x^2 - 2y^2 = -1 for |m| <= m_max, the
    recurrence agrees with plain multiplication, and the exhaustive converse
    holds over 0 < y <= PELL_Y_MAX."""
    return _first_failure("pell", _pell_cases(m_max))


def _pell_cases(m_max: int) -> Iterator[str | None]:
    """The `check_pell` cases: solutions, then the recurrence, then the
    converse.  The powers come through the `pell` module, so a function
    swapped there (a tracer, a test) is the one checked."""
    from . import pell
    from .zsqrt2 import DELTA, QuadInt

    for m in range(-m_max, m_max + 1):
        try:
            w = pell.gamma_delta_power(m)
        except ValueError as exc:
            yield f"m={m}: {exc}"
        else:
            yield None if w.x * w.x - 2 * w.y * w.y == -1 else (
                f"m={m}: ({w.x}, {w.y}) does not solve x^2 - 2y^2 = -1"
            )
    rng = random.Random(0x5EED)
    sample = [QuadInt(rng.randint(-999, 999), rng.randint(-999, 999)) for _ in range(20)]
    for t in sample:
        acc = t
        for rc in _recurrence_pairs(m_max):
            yield None if _apply_pair(t, rc) == acc else f"recurrence mismatch at t={t}, n={rc.n}"
            acc = acc * DELTA
    known = set()
    m = 0
    while (w := pell.gamma_delta_power(m)).y <= PELL_Y_MAX:
        known.add((w.x, w.y))
        m += 1
    for y in range(1, PELL_Y_MAX + 1):
        t = 2 * y * y - 1
        x = math.isqrt(t)
        if x * x == t:
            yield None if (x, y) in known else (
                f"({x}, {y}) solves the equation but is not GAMMA*DELTA^m"
            )


def pair_count_rows(b_max: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Running pair counts (B, pool, GO, GEE, GEO) for B = 1..b_max.

    pool counts the coprime pairs 0 < m < k <= B; GO those with k and m odd,
    GEE k odd and m even, GEO k even and m odd.  The coprime m < k of each
    parity come from inclusion-exclusion over the odd primes of k, found by
    trial division: an odd d has q = (k - 1) // d multiples d*j below k, and
    d*j is odd exactly when j is, so (q + 1) // 2 of them are odd.  An even
    k keeps only the odd m.  No gcd and no totient table is used.
    """
    pool = go = gee = geo = 0
    for k in range(1, b_max + 1):
        n_odd = n_even = 0
        terms = [(1, 1)]  # (squarefree odd divisor d of k, moebius(d))
        rest, p = odd_part(k), 3
        while rest > 1:
            if p * p > rest:
                p = rest  # no factor up to its square root: rest is prime
            if rest % p == 0:
                terms += [(d * p, -mu) for d, mu in terms]
                while rest % p == 0:
                    rest //= p
            p += 2
        for d, mu in terms:
            q = (k - 1) // d  # multiples of d below k
            n_odd += mu * ((q + 1) // 2)
            n_even += mu * (q // 2)
        if k % 2:  # odd k: GO takes the odd m, GEE the even
            go += n_odd
            gee += n_even
            pool += n_odd + n_even
        else:  # even k: every coprime m is odd
            geo += n_odd
            pool += n_odd
        yield k, pool, go, gee, geo


def check_density_cross(b_max: int) -> CheckReport:
    """Formula-based counts match the inclusion-exclusion pair counts at
    every bound 1..b_max, one bound at a time.

    The formulas memoize one totient sum per bound, so b_max itself, not
    the totient table behind them, must fit the budget.
    """
    from .density import TotientSums, _check_budget, count_GEE, count_GEO, count_GO, count_pool

    _check_budget(b_max)
    sums = TotientSums.up_to(b_max)
    formulas = {
        "pool": count_pool,
        "GO": count_GO,
        "GEE": count_GEE,
        "GEO": count_GEO,
    }
    counts = (
        (name, B, fn(B, sums), want)
        for B, *wants in pair_count_rows(b_max)
        for (name, fn), want in zip(formulas.items(), wants)
    )
    return _first_failure("density-cross", (
        None if got == want else f"{name}({B}) formula gives {got}, enumeration gives {want}"
        for name, B, got, want in counts
    ))


def odd_part(n: int) -> int:
    """The largest odd divisor of n (n > 0)."""
    if n < 1:
        raise ValueError(f"odd part of {n} undefined; need a positive integer")
    return n >> ((n & -n).bit_length() - 1)
