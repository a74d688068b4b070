"""Exact arithmetic in Z[sqrt(2)].

Elements are x + y*sqrt(2) with integer x, y.  Every ideal is principal,
and its shortest vector under x**2 + 2*y**2 generates it, so gcds exist and
every rational prime p = +/-1 mod 8 splits into a conjugate pair of prime
elements of norm +/-p.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Callable, NamedTuple

from ._primes import is_prime


class QuadInt(NamedTuple):
    """x + y*sqrt(2).  + - * are the ring's, an int n on either side read as
    (n, 0); any other operand, a plain tuple among them, is a TypeError."""

    x: int
    y: int

    def __repr__(self) -> str:
        return f"QuadInt({self.x}, {self.y})"

    def __str__(self) -> str:
        return f"{self.x}{self.y:+}√2"

    def __add__(self, other: QuadInt | int) -> QuadInt:
        x, y = _ring_operand(other)
        return QuadInt(self.x + x, self.y + y)

    __radd__ = __add__

    def __sub__(self, other: QuadInt | int) -> QuadInt:
        return self + -_ring_operand(other)

    def __rsub__(self, other: QuadInt | int) -> QuadInt:
        return (-self) + other

    def __neg__(self) -> QuadInt:
        return QuadInt(-self.x, -self.y)

    def __mul__(self, other: QuadInt | int) -> QuadInt:
        # an exact QuadInt, the hot case, skips the operand check and the
        # constructor's argument parsing
        x, y = other if type(other) is QuadInt else _ring_operand(other)
        a, b = self
        return tuple.__new__(QuadInt, (a * x + 2 * b * y, a * y + b * x))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadInt:
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadInt(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> QuadInt:
        """Inverse of a unit (norm +/-1); anything else has none in the ring."""
        n = self.norm
        if n == 1:
            return self.conjugate()
        if n == -1:
            return -self.conjugate()
        raise ZeroDivisionError(f"{self} is not a unit")

    def conjugate(self) -> QuadInt:
        return QuadInt(self.x, -self.y)

    @property
    def norm(self) -> int:
        return self.x * self.x - 2 * self.y * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


def _ring_operand(v: QuadInt | int) -> QuadInt:
    """A ring operand as an element; a plain tuple or anything else is a TypeError."""
    if isinstance(v, QuadInt):
        return v
    if isinstance(v, int):
        return QuadInt(v, 0)
    raise TypeError(f"unsupported operand for Z[sqrt(2)] arithmetic: {type(v).__name__}")


ZERO = QuadInt(0, 0)
ONE = QuadInt(1, 0)
SQRT2 = QuadInt(0, 1)
GAMMA = QuadInt(1, 1)  # fundamental unit, norm -1
DELTA = QuadInt(3, 2)  # GAMMA**2, norm +1
_DELTA_INV = DELTA.conjugate()


def _canonical_key(v: QuadInt) -> tuple[int, bool, int, bool]:
    return (abs(v.x), v.x <= 0, abs(v.y), v.y < 0)


def _orbit_low(
    u: QuadInt, coord: Callable[[QuadInt], int] = attrgetter("x")
) -> tuple[int, QuadInt]:
    """(k, u * DELTA**k) for the least k at which |coord| is least along
    u's DELTA orbit; ZERO, whose orbit is constant, gives (0, ZERO).

    Either coordinate of u * DELTA**k is A*L**k + B*L**-k, L = 3 + 2*sqrt(2),
    for reals A, B that are both 0 only for ZERO.  Its absolute value, read
    over real k, falls strictly to one least point and rises strictly after
    it, so over the integers it falls strictly to its least value, ties it
    at most at the next k up, and then rises strictly.  A step walk from
    k = 0, up while |coord| falls and then down while it does not rise,
    thus ends at the answer after |k| + 2 ring steps.
    """
    k, v = 0, u
    while abs(coord(up := v * DELTA)) < abs(coord(v)):
        k, v = k + 1, up
    if not u.is_zero():
        while abs(coord(down := v * _DELTA_INV)) <= abs(coord(v)):
            k, v = k - 1, down
    return k, v


def canonical_associate(u: QuadInt) -> QuadInt:
    """The associate of u with minimal |x|, preferring x > 0, then minimal
    |y| with y >= 0.

    The units are +/- GAMMA**k, so up to sign the least |x| is at the low
    point of the DELTA orbit of u or of u * GAMMA.  The next point up ties
    it only at t*(2 + sqrt(2)) or t*(1 + sqrt(2)), up to sign, and then the
    other orbit holds t*sqrt(2) or t, which the order puts first.
    """
    if u.is_zero():
        return u
    lows = [_orbit_low(v)[1] for v in (u, u * GAMMA)]
    return min(lows + [-v for v in lows], key=_canonical_key)


def _shortest(u: tuple[int, int], v: tuple[int, int]) -> QuadInt:
    """A shortest vector under x**2 + 2*y**2 of the lattice with basis u, v,
    by Gauss reduction; on a nonzero ideal it is a generator.

    An ideal of index N has Gram determinant 2*N*N, so the Hermite bound puts
    its shortest vector w at x**2 + 2*y**2 <= sqrt(8/3)*N < 2N.  As w lies in
    the ideal, norm(w) is a nonzero multiple of N, and |norm(w)| is at most
    x**2 + 2*y**2, so norm(w) = +/-N and w generates the ideal.
    """
    (a, b), (c, d) = u, v
    qv = c * c + 2 * d * d
    while True:
        m = (2 * (a * c + 2 * b * d) + qv) // (2 * qv)  # nearest to <u, v>/qv
        a, b = a - m * c, b - m * d
        if (qu := a * a + 2 * b * b) >= qv:
            return QuadInt(c, d)
        a, b, c, d, qv = c, d, a, b, qu


def gcd(alpha: QuadInt, beta: QuadInt) -> QuadInt:
    """A greatest common divisor, in canonical associate form.

    Euclid on the y coordinates of alpha, beta and their sqrt(2) multiples,
    which span the ideal (alpha, beta), leaves one vector (x, g) and clears
    the others' y; their x values span e*Z, so (e, 0), (x, g) is a basis.
    """
    if alpha.is_zero() and beta.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    e, x, g = 0, 0, 0
    for vx, vy in (alpha, alpha * SQRT2, beta, beta * SQRT2):
        while vy:
            q = g // vy
            x, g, vx, vy = vx, vy, x - q * vx, g - q * vy
        e = math.gcd(e, vx)
    return canonical_associate(_shortest((e, 0), (x, g)))


def splits(p: int) -> bool:
    """Whether the rational prime p splits in Z[sqrt(2)]: p = +/-1 mod 8."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    return p % 8 in (1, 7)


def _sqrt_mod(n: int, p: int) -> int:
    """A square root of the quadratic residue n modulo the odd prime p.

    Tonelli-Shanks; for p = 3 mod 4 it is the single power n**((p+1)/4).
    The non-residue it needs is the least one, found by Euler's criterion.
    """
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def ideal_generator(p: int) -> QuadInt:
    """The prime element x + y*sqrt(2) with |norm| = p, x, y > 0 and the
    least y, for a split prime p.

    With a = sqrt(2) mod p, the prime (p, a + sqrt(2)) above p is the lattice
    of x = a*y mod p, with basis (p, 0), (a, 1).  Every element of norm +/-p
    is an associate of its generator g or of conj(g), so the least |y| is on
    the two GAMMA-parity orbits of g; |x| then follows, as p + 2*y*y and
    2*y*y - p differ by 2p and cannot both be squares.  O(log^2 p) modular
    multiplications for the square root (Tonelli-Shanks) plus O(log p) steps
    for the reduction and the orbit walk.
    """
    if not splits(p):
        raise ValueError(f"{p} does not split in Z[sqrt(2)]")
    g = _shortest((p, 0), (_sqrt_mod(2, p), 1))
    lows = [_orbit_low(v, attrgetter("y"))[1] for v in (g, g * GAMMA)]
    u = min(lows, key=lambda v: abs(v.y))
    return QuadInt(abs(u.x), abs(u.y))
