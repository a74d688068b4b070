"""Families of primitive triples (a, a+f, c) with a fixed leg gap f.

A primitive triple with legs f apart satisfies (2a+f)**2 - 2c**2 = -f**2, a
Pell-type equation, which forces every prime factor of f to be +/-1 mod 8
(and f to be odd).  Conversely, all such triples are read off from the
elements +/- GAMMA * DELTA**m * u**2 of Z[sqrt(2)], where u ranges over the
norm-f products built by choosing, for each prime factor of f, either its
prime-element generator or the conjugate.

Along one branch GAMMA * DELTA**m * u**2, |x| falls to a least value, the
branch's valley, and then rises; `zsqrt2._orbit_low` finds the valley.
Generation splits each branch at its valley, clamped to the range of m,
into two runs of rising |x|, one DELTA factor per step, and merges the runs
by X = |x| = 2a + f, which orders the triples by (a, b, c); a triple
reached by several branches keeps the first in ascending m.  Records
stream out as they are merged: live state is one element per run, two runs
per branch.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, NamedTuple

# factorize, gamma_delta_power and ideal_generator are called through their
# modules, so a function swapped there (a tracer, a test) is the one called
from . import _primes, pell, zsqrt2
from ._primes import InadmissibleError
from .triples import Triple
from .zsqrt2 import _DELTA_INV, DELTA, GAMMA, ONE, QuadInt, _orbit_low

__all__ = [
    "FSpec",
    "CfElement",
    "FTriple",
    "admissible_f",
    "cf_elements",
    "iter_f_triples",
    "generate_f_triples",
]


class FSpec(NamedTuple):
    """A leg gap with its factorization, admissibility verdict and, if it is
    admissible, one prime-element generator per prime factor, in order."""

    f: int
    factorization: tuple[tuple[int, int], ...]
    admissible: bool
    reasons: tuple[str, ...] = ()
    generators: tuple[QuadInt, ...] = ()


class CfElement(NamedTuple):
    """A norm +/-f element; choices[i] = 0 picks the generator of the i-th
    prime factor, 1 its conjugate."""

    u: QuadInt
    choices: tuple[int, ...]


class FTriple(NamedTuple):
    """A generated triple with its branch provenance and Pell components
    X = 2a + f, Y = c."""

    triple: Triple
    m: int
    sign: int
    cf_choice: CfElement
    X: int
    Y: int


def admissible_f(f: int) -> FSpec:
    """Factor f and test the necessary condition: odd, all primes +/-1 mod 8.

    Rejection reasons are listed per offending prime; an admissible f gets
    each prime's generator, found here once.  Factorization is limited to
    f < 2**64 (UnsupportedRangeError beyond).
    """
    if f < 1:
        raise ValueError(f"leg gap must be a positive integer, got {f}")
    factorization = tuple(_primes.factorize(f))
    reasons = tuple(
        f"prime factor {p} is {p % 8} mod 8, not +/-1"
        for p, _ in factorization
        if p % 8 not in (1, 7)
    )
    generators = () if reasons else tuple(zsqrt2.ideal_generator(p) for p, _ in factorization)
    return FSpec(f, factorization, not reasons, reasons, generators)


def cf_elements(spec: FSpec) -> list[CfElement]:
    """All 2**k products over the k distinct prime factors, each of norm
    +/-f; the empty product 1 for f = 1.  An inadmissible spec raises
    InadmissibleError, which lists the offending primes."""
    if not spec.admissible:
        raise InadmissibleError(f"f={spec.f} is inadmissible: " + "; ".join(spec.reasons))
    out: list[CfElement] = []
    for choices in itertools.product((0, 1), repeat=len(spec.generators)):
        u = ONE
        for (p, exp), gen, pick in zip(spec.factorization, spec.generators, choices):
            q = gen if pick == 0 else gen.conjugate()
            u = u * q**exp
        out.append(CfElement(u, choices))
    return out


def iter_f_triples(spec: FSpec, m_lo: int, m_hi: int) -> Iterator[FTriple]:
    """All distinct triples from +/- GAMMA * DELTA**m * u**2 over m in
    [m_lo, m_hi] and every norm-f element u, lazily and in (a, b, c) order.

    Components are normalized to X = |x|, Y = |y|, so the - sign only repeats
    the + branch and every row has sign = 1.  Branches with X <= f would give
    a nonpositive first leg and are skipped.  Each triple is emitted once,
    tagged with the first branch, in ascending m, that hit it.  The range
    and the gap are checked when this is called, before the first triple.

    Each branch's valley v costs |v| + 2 ring steps, and each record O(1)
    ring steps on numbers of about 0.77 |m| digits, so a span costs about
    quadratically many digits in all; the live state is 2 * 2**k run heads
    for k distinct prime factors of f.
    """
    if m_lo > m_hi:
        raise ValueError(f"empty exponent range [{m_lo}, {m_hi}]")
    elements = cf_elements(spec)
    runs = []
    for index, elem in enumerate(elements):
        square = elem.u * elem.u
        valley, w = _orbit_low(GAMMA * square)
        s = min(max(valley, m_lo), m_hi)
        if s != valley:
            w = pell.gamma_delta_power(s) * square
        runs.append(_run(spec.f, index, w, s, m_hi + 1, DELTA))
        runs.append(_run(spec.f, index, w * _DELTA_INV, s - 1, m_lo - 1, _DELTA_INV))
    return _first_of_each(spec.f, elements, heapq.merge(*runs))


def _run(
    f: int, index: int, w: QuadInt, m: int, stop: int, unit: QuadInt
) -> Iterator[tuple[int, int, int, int]]:
    """(X, m, index, Y) of branch `index` from w at m, one `unit` per step,
    until m reaches stop.  A run holds one key or leads away from the
    branch's valley (`zsqrt2._orbit_low`), so |x| does not fall along it
    and the keys ascend.
    X = |x| with x*x - 2*y*y = -f*f and f odd, so X is odd and every X > f
    gives integer legs (X - f)/2 and (X + f)/2."""
    step = 1 if stop > m else -1
    while m != stop:
        X = abs(w.x)
        if X > f:
            yield X, m, index, abs(w.y)
        w = w * unit
        m += step


def _first_of_each(
    f: int, elements: list[CfElement], merged: Iterator[tuple[int, int, int, int]]
) -> Iterator[FTriple]:
    """The first of each group of equal X in keys sorted by (X, m, index)."""
    last = None
    for X, m, index, Y in merged:
        if X != last:
            last = X
            yield FTriple(Triple((X - f) // 2, (X + f) // 2, Y), m, 1, elements[index], X, Y)


def generate_f_triples(spec: FSpec, m_lo: int, m_hi: int) -> list[FTriple]:
    """`iter_f_triples` as a list, in (a, b, c) order."""
    return list(iter_f_triples(spec, m_lo, m_hi))
