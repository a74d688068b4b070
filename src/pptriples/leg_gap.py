"""Families of primitive triples (a, a+f, c) with a fixed leg gap f.

A primitive triple with legs f apart satisfies (2a+f)**2 - 2c**2 = -f**2, a
Pell-type equation, which forces every prime factor of f to be +/-1 mod 8
(and f to be odd).  Conversely, all such triples are read off from the
elements +/- GAMMA * DELTA**m * u**2 of Z[sqrt(2)], where u ranges over the
norm-f products built by choosing, for each prime factor of f, either its
prime-element generator or the conjugate.

Generation walks m upward, one DELTA factor per step from a single power
GAMMA * DELTA**m_lo; a triple reached by several branches keeps the first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ._primes import InadmissibleError, factorize
from .pell import gamma_delta_power
from .triples import Triple
from .zsqrt2 import DELTA, ONE, QuadInt, ideal_generator

__all__ = [
    "FSpec",
    "CfElement",
    "FTriple",
    "admissible_f",
    "pell_recast",
    "cf_elements",
    "generate_f_triples",
]


@dataclass(frozen=True)
class FSpec:
    """A leg gap with its factorization, admissibility verdict and, if it is
    admissible, one prime-element generator per prime factor, in order."""

    f: int
    factorization: tuple[tuple[int, int], ...]
    admissible: bool
    reasons: tuple[str, ...] = ()
    generators: tuple[QuadInt, ...] = ()


@dataclass(frozen=True)
class CfElement:
    """A norm +/-f element; choices[i] = 0 picks the generator of the i-th
    prime factor, 1 its conjugate."""

    u: QuadInt
    choices: tuple[int, ...]


@dataclass(frozen=True)
class FTriple:
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
    factorization = tuple(factorize(f))
    reasons = tuple(
        f"prime factor {p} is {p % 8} mod 8, not +/-1"
        for p, _ in factorization
        if p % 8 not in (1, 7)
    )
    generators = () if reasons else tuple(ideal_generator(p) for p, _ in factorization)
    return FSpec(f, factorization, not reasons, reasons, generators)


def pell_recast(t: Triple, f: int) -> tuple[int, int]:
    """(X, Y) = (2a + f, c) for a triple with legs a < b = a + f.

    The Pythagorean identity turns into X*X - 2*Y*Y = -f*f exactly.
    """
    if t.b - t.a != f:
        raise ValueError(f"legs of {t} differ by {t.b - t.a}, not {f}")
    return 2 * t.a + f, t.c


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


def generate_f_triples(spec: FSpec, m_lo: int, m_hi: int) -> list[FTriple]:
    """All distinct triples from +/- GAMMA * DELTA**m * u**2 over m in
    [m_lo, m_hi] and every norm-f element u.

    Components are normalized to X = |x|, Y = |y|, so the - sign only repeats
    the + branch and every row has sign = 1.  Branches with X <= f would give
    a nonpositive first leg and are skipped.  Each triple is emitted once,
    tagged with the first branch, in ascending m, that hit it.
    """
    if m_lo > m_hi:
        raise ValueError(f"empty exponent range [{m_lo}, {m_hi}]")
    f = spec.f
    branches = [(elem, elem.u * elem.u) for elem in cf_elements(spec)]
    seen: set[tuple[int, int, int]] = set()
    out: list[FTriple] = []
    base = gamma_delta_power(m_lo)
    for m in range(m_lo, m_hi + 1):
        for elem, square in branches:
            w = base * square
            X, Y = abs(w.x), abs(w.y)
            if X <= f or (X - f) % 2:
                continue
            a, b = (X - f) // 2, (X + f) // 2
            key = (a, b, Y)
            if key in seen:
                continue
            seen.add(key)
            out.append(FTriple(Triple(a, b, Y), m, 1, elem, X, Y))
        base = base * DELTA
    return out
