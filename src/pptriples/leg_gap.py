"""Families of primitive triples (a, a+f, c) with a fixed leg gap f.

A primitive triple with legs f apart satisfies (2a+f)**2 - 2c**2 = -f**2, a
Pell-type equation, which forces every prime factor of f to be +/-1 mod 8
(and f to be odd); `admissible_f` refuses any other f.  Conversely, all such
triples are read off from the elements +/- GAMMA * DELTA**m * u**2 of
Z[sqrt(2)], where u ranges over the norm-f products built by choosing, for
each prime factor of f, either its prime-element generator or the conjugate.
`admissible_f` builds these elements once, into the `FSpec` that every
later step reads.

Conjugation pairs the branches.  As conj(GAMMA) = -1/GAMMA and conj(DELTA)
= 1/DELTA, the conjugate of GAMMA * DELTA**m * u**2 is
-GAMMA * DELTA**(-m-1) * conj(u)**2, so (m, u) and (-m-1, conj(u)) give
the same triple; conj(u) is the element with the complementary choices
(`admissible_f`).  No other two (m, u) give the same triple, since distinct
choices give elements that are not associates: each triple comes from
exactly one such conjugate pair.  f = 1's one branch, u = 1, is its own
twin.

Along one branch GAMMA * DELTA**m * u**2, |x| falls to a least value, the
branch's valley, and then rises; `zsqrt2._orbit_low` finds the valley.
Generation walks one branch of each conjugate pair, splits it at its
valley, clamped to each interval of m it walks, into two runs of rising
|x|, one DELTA factor per step, and merges the runs by X = |x| = 2a + f,
which orders the triples by (a, b, c).  Records stream out as they are
merged: live state is one element per run.
"""

from __future__ import annotations

import heapq
from typing import Iterator, NamedTuple

# factorize, gamma_delta_power and ideal_generator are called through their
# modules, so a function swapped there (a tracer, a test) is the one called
from . import _primes, pell, zsqrt2
from ._primes import InadmissibleError
from .triples import Triple
from .zsqrt2 import _DELTA_INV, DELTA, GAMMA, ONE, QuadInt, _orbit_low

class CfElement(NamedTuple):
    """A norm +/-f element; choices[i] = 0 picks the generator of the i-th
    prime factor, 1 its conjugate."""

    u: QuadInt
    choices: tuple[int, ...]


class FSpec(NamedTuple):
    """An admissible leg gap with its factorization and its 2**k norm-f
    elements, as `admissible_f` built them."""

    f: int
    factorization: tuple[tuple[int, int], ...]
    elements: tuple[CfElement, ...]


class FTriple(NamedTuple):
    """A generated triple and its branch GAMMA * DELTA**m * u**2, u the
    cf_choice's element; its Pell components are X = a + b and Y = c."""

    triple: Triple
    m: int
    cf_choice: CfElement


def admissible_f(f: int) -> FSpec:
    """Factor f and test the necessary condition: odd, all primes +/-1 mod 8.

    A failing f raises InadmissibleError, naming each failing prime in order
    (`zsqrt2.splits`).  An admissible f gets its `FSpec`, with its norm-f
    elements built here once: all 2**k products over the k distinct prime
    factors, each factor's generator or its conjugate to the factor's power
    (the empty product 1 for f = 1).  In this order the conjugate of element
    i, its complementary choices, is element 2**k - 1 - i.  Factorization is
    limited to f < 2**64 (UnsupportedRangeError beyond).
    """
    if f < 1:
        raise ValueError(f"leg gap must be a positive integer, got {f}")
    factorization = tuple(_primes.factorize(f))
    reasons = [
        f"prime factor {p} is {p % 8} mod 8, not +/-1"
        for p, _ in factorization
        if not zsqrt2.splits(p)
    ]
    if reasons:
        raise InadmissibleError(f"f={f} is inadmissible: " + "; ".join(reasons))
    elements = [CfElement(ONE, ())]
    for p, exp in factorization:
        q = zsqrt2.ideal_generator(p) ** exp
        elements = [
            CfElement(e.u * v, (*e.choices, pick))
            for e in elements
            for pick, v in enumerate((q, q.conjugate()))
        ]
    return FSpec(f, factorization, tuple(elements))


def cf_elements(spec: FSpec) -> tuple[CfElement, ...]:
    """`spec.elements`, the norm +/-f elements `admissible_f` built.  This
    step stays only so that the `perfbench` tracer can wrap it."""
    return spec.elements


def iter_f_triples(spec: FSpec, m_lo: int, m_hi: int) -> Iterator[FTriple]:
    """All distinct triples from +/- GAMMA * DELTA**m * u**2 over m in
    [m_lo, m_hi] and every norm-f element u, lazily and in (a, b, c) order.

    Components are normalized to X = |x|, Y = |y|, so the - sign only repeats
    the + branch and is not walked.  Branches with X <= f would give a
    nonpositive first leg and are skipped.  Each triple is emitted once,
    tagged with the first branch, in ascending m, that hit it.  The range
    is checked when this is called, before the first triple.

    Of each conjugate pair, branch i <= twin i' is walked over [m_lo, m_hi]
    united with its reflection m -> -m-1, one interval when the two meet and
    else two; a self-conjugate branch (f = 1) over its part with m >= 0.  A
    walked m stands for (m, i) and (-m-1, i'), so each triple is reached
    once, and is tagged with the lesser of the two inside [m_lo, m_hi].

    Each walked valley v costs |v| + 2 ring steps, and each record O(1)
    ring steps on numbers of about 0.77 |m| digits, so a span costs about
    quadratically many digits in all.  The live state is one head per run,
    at most 2**k for k distinct prime factors of f when the range meets its
    reflection and twice that when it does not.
    """
    if m_lo > m_hi:
        raise ValueError(f"empty exponent range [{m_lo}, {m_hi}]")
    elements = cf_elements(spec)
    if m_lo > 0 or m_hi < -1:  # the range and its reflection are disjoint
        spans = [(m_lo, m_hi), (-m_hi - 1, -m_lo - 1)]
    else:
        top = max(m_hi, -m_lo - 1)
        spans = [(-top - 1, top)]
    runs = []
    for index in range((len(elements) + 1) // 2):
        twin = len(elements) - 1 - index
        tags = (index, twin, m_lo, m_hi)
        square = elements[index].u * elements[index].u
        valley, low = _orbit_low(GAMMA * square)
        for lo, hi in spans:
            if twin == index:  # m and -m-1 name one pair: keep m >= 0
                lo = max(lo, 0)
                if hi < lo:
                    continue
            s = min(max(valley, lo), hi)
            w = low if s == valley else pell.gamma_delta_power(s) * square
            runs.append(_run(spec.f, tags, w, s, hi + 1, DELTA))
            if s > lo:
                runs.append(_run(spec.f, tags, w * _DELTA_INV, s - 1, lo - 1, _DELTA_INV))
    return _records(spec.f, elements, heapq.merge(*runs))


def _run(
    f: int, tags: tuple[int, int, int, int], w: QuadInt, m: int, stop: int, unit: QuadInt
) -> Iterator[tuple[int, int, int, int]]:
    """(X, m', i', Y) of branch i from w at m, one `unit` per step, until m
    reaches stop.  tags = (i, twin, m_lo, m_hi), and (m', i') is the lesser
    of (m, i) and (-m-1, twin) inside [m_lo, m_hi].  A run holds one key or
    leads away from the branch's valley (`zsqrt2._orbit_low`), so |x| does
    not fall along it and the keys ascend."""
    index, twin, m_lo, m_hi = tags
    for m in range(m, stop, 1 if stop > m else -1):
        X = abs(w.x)
        if X > f:
            t = -m - 1
            if m_lo <= m <= m_hi and (m < t or not m_lo <= t <= m_hi):
                yield X, m, index, abs(w.y)
            else:
                yield X, t, twin, abs(w.y)
        w = w * unit


def _records(
    f: int, elements: tuple[CfElement, ...], merged: Iterator[tuple[int, int, int, int]]
) -> Iterator[FTriple]:
    """The record of each key, each checked once before it is yielded.
    X > f and X*X + f*f == 2*Y*Y is `Triple`'s test, positivity and
    a*a + b*b == c*c, for a = (X - f)/2, b = (X + f)/2 and c = Y, with two
    squarings, not three; it also makes X - f even, so the halves are
    exact.  A failed check raises ValueError."""
    new = tuple.__new__
    ff = f * f
    for X, m, index, Y in merged:
        a = (X - f) >> 1  # (X - f) // 2, and b = (X + f) // 2
        b = a + f
        # Y * Y is a squaring, cheaper than the product (2 * Y) * Y
        if not (X > f and X * X + ff == 2 * (Y * Y)):
            Triple(a, b, Y)  # the constructor raises the failed check's ValueError
            raise ValueError(f"X = {X} and f = {f} differ in parity: no integer legs")
        yield new(FTriple, (new(Triple, (a, b, Y)), m, elements[index]))


def generate_f_triples(spec: FSpec, m_lo: int, m_hi: int) -> list[FTriple]:
    """`iter_f_triples` as a list, in (a, b, c) order."""
    return list(iter_f_triples(spec, m_lo, m_hi))
