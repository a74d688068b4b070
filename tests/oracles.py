"""Test-only oracles: identities and rechecks that recompute by a second
route what the library computes once, and that no `verify` suite runs.

Divisor sums, totients and Moebius inversion computed from factorizations,
the phi table taken back out of the library's prefix sums, totient sums
sliced from it, the recheck of a leg-gap triple, the leg across a
hypotenuse gap, the parametrization (r, s) -> triple and the enumerator's
rows as `Triple`s, Euclidean division in Z[sqrt(2)] with the gcd and the
norm-p generators it gives, associates in Z[sqrt(2)], and the A/B delta
recurrences read one coefficient pair at a time.  The recurrence itself is
stated once, in `pptriples.checks`, whose `check_pell` runs it.
"""

from __future__ import annotations

import collections
import math
import operator
from array import array
from typing import TYPE_CHECKING, Iterator

from pptriples._primes import factorize
from pptriples.checks import RecurrencePair, _apply_pair, _recurrence_pairs, odd_part
from pptriples.triples import ParamPair, Triple, iter_ppt_rows
from pptriples.zsqrt2 import GAMMA, QuadInt, _orbit_low, _sqrt_mod, canonical_associate

if TYPE_CHECKING:
    from pptriples.leg_gap import FSpec, FTriple


def verify_f_triple(ft: FTriple, spec: FSpec) -> bool:
    """Independent recheck: Pythagorean, leg gap f, primitive, and the Pell
    identity X*X - 2*Y*Y = -f*f on (X, Y) = (a + b, c).  False is the
    diagnostic, never an exception."""
    (a, b, c), f = ft.triple, spec.f
    return (
        a * a + b * b == c * c
        and b - a == f
        and math.gcd(a, b) == 1
        and (a + b) ** 2 - 2 * c * c == -f * f
    )


def leg_from_gap(a: int, g: int) -> int | None:
    """The leg b with (a, b, b+g) Pythagorean, when it is a positive integer.

    Solving a*a + b*b = (b+g)**2 gives b = (a*a - g*g) / (2*g).
    """
    if g < 1:
        raise ValueError(f"gap must be a positive integer, got {g}")
    num = a * a - g * g
    if num <= 0 or num % (2 * g):
        return None
    return num // (2 * g)


def from_params(p: ParamPair) -> Triple:
    """The triple (r*r - s*s, 2*r*s, r*r + s*s)."""
    r, s = p.r, p.s
    return Triple(r * r - s * s, 2 * r * s, r * r + s * s)


def iter_ppts(c_max: int) -> Iterator[Triple]:
    """The rows of `iter_ppt_rows(c_max)` as validated `Triple`s, in its order."""
    for c, a, b in iter_ppt_rows(c_max):
        yield Triple(a, b, c)


def _round_half_toward_zero(num: int, den: int) -> int:
    """Nearest integer to num/den; exact halves round toward zero."""
    if den < 0:
        num, den = -num, -den
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q < 0):
        q += 1
    return q


def euclid_div(alpha: QuadInt, beta: QuadInt) -> tuple[QuadInt, QuadInt]:
    """Quotient and remainder with |norm(remainder)| < |norm(beta)|.

    The quotient is alpha * conj(beta) / norm(beta) with both components
    rounded to a nearest integer; any rounding within 1/2 meets the bound,
    and the half-toward-zero rule makes the choice deterministic.
    """
    if beta.is_zero():
        raise ZeroDivisionError("division by zero in Z[sqrt(2)]")
    n = beta.norm
    p = alpha * beta.conjugate()
    q = QuadInt(_round_half_toward_zero(p.x, n), _round_half_toward_zero(p.y, n))
    return q, alpha - beta * q


def euclid_gcd(alpha: QuadInt, beta: QuadInt) -> QuadInt:
    """A greatest common divisor by Euclid's algorithm, in canonical associate form."""
    if alpha.is_zero() and beta.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = alpha, beta
    while not b.is_zero():
        a, b = b, euclid_div(a, b)[1]
    return canonical_associate(a)


def euclid_ideal_generator(p: int) -> QuadInt:
    """The norm +/-p generator of `ideal_generator`, with the prime ideal
    (p, a + sqrt(2)) spanned by the Euclidean gcd of its two generators."""
    g = euclid_gcd(QuadInt(p, 0), QuadInt(_sqrt_mod(2, p), 1))
    lows = [_orbit_low(v, operator.attrgetter("y"))[1] for v in (g, g * GAMMA)]
    u = min(lows, key=lambda v: abs(v.y))
    return QuadInt(abs(u.x), abs(u.y))


def is_associate(u: QuadInt, v: QuadInt) -> bool:
    """True iff u and v differ by a unit factor."""
    if u.is_zero() or v.is_zero():
        return u.is_zero() and v.is_zero()
    return euclid_div(u, v)[1].is_zero() and euclid_div(v, u)[1].is_zero()


def recurrence_coeffs(n: int) -> RecurrencePair:
    """The n-th coefficient pair: A = 1, 3, 17, ... and B = 0, 2, 12, ...

    They follow A(n) = 6*A(n-1) - A(n-2) and B(n) = 6*B(n-1) - B(n-2), and
    satisfy t * DELTA**n = A*t + B*(2k + j*sqrt(2)) for t = j + k*sqrt(2).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return collections.deque(_recurrence_pairs(n), maxlen=1)[0]


def apply_delta_power(t: QuadInt, n: int) -> QuadInt:
    """t * DELTA**n evaluated through the recurrence coefficients."""
    return _apply_pair(t, recurrence_coeffs(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def totient(n: int) -> int:
    """Euler's totient, computed directly from the factorization of n."""
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def moebius(n: int) -> int:
    """The Moebius function, computed directly from the factorization of n."""
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def phi_table(prefix: array) -> array:
    """phi(0..n), as S(i) - S(i - 1), from the prefix sums S(0..n) that
    `build_sieve` returns: the table the oracles below slice and read."""
    return array("q", [0]) + array("q", map(operator.sub, prefix[1:], prefix))


def _check_bound(n: int, sieve: array) -> None:
    if not 1 <= n <= len(sieve) - 1:
        raise ValueError(f"{n} outside sieve range 1..{len(sieve) - 1}")


def sum_phi(B: int, sieve: array) -> int:
    """Exact partial sum of phi(1..B); grows like (3/pi^2) B^2."""
    _check_bound(B, sieve)
    return sum(memoryview(sieve)[1 : B + 1])  # a view: the table is not copied


def sum_phi2(B: int, sieve: array) -> int:
    """Exact partial sum of phi2(1..B); grows like (2/pi^2) B^2."""
    _check_bound(B, sieve)
    return sum(memoryview(sieve)[1 : B + 1 : 2])


def phi2(n: int, sieve: array) -> int:
    """The 2-Euler totient: phi(n) for odd n, 0 for even n."""
    _check_bound(n, sieve)
    return sieve[n] if n % 2 else 0


def phi2_divisor_sum(n: int) -> int:
    """sum of phi2 over the divisors of n, which equals the odd part of n.

    Computed literally from the divisor list (totients via factorization),
    independent of any sieve, so it can cross-check both.
    """
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    return sum(totient(d) for d in divisors(n) if d % 2)


def moebius_inversion_check(n: int, sieve: array) -> bool:
    """Whether sum(mu(d) * odd_part(n/d), d | n) equals phi2(n)."""
    _check_bound(n, sieve)
    lhs = sum(moebius(d) * odd_part(n // d) for d in divisors(n))
    return lhs == phi2(n, sieve)
