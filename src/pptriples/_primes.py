"""Rational-prime utilities: deterministic primality and factorization.

Everything here is exact integer arithmetic.  The primality test is a
deterministic Miller-Rabin valid for all inputs below 2**64; larger inputs
are rejected rather than answered probabilistically.

The refusal types of every layer live here too, so the CLI maps them to
exit codes without importing the layers that raise them.
"""

from __future__ import annotations

import math

PRIME_TEST_LIMIT = 2**64

# Valid deterministic witness set for every n < 3.3e24, which covers 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class UnsupportedRangeError(ValueError):
    """Raised when an input is too large for the deterministic algorithms."""


class InadmissibleError(ValueError):
    """Raised when a gap admits no primitive triple; the message names the failed tests."""


class SieveBudgetError(ValueError):
    """Requested table bound exceeds the configured memory budget."""


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n >= PRIME_TEST_LIMIT:
        raise UnsupportedRangeError(
            f"primality testing supports n < 2**64, got {n}"
        )
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (deterministic seed sweep)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of 1 <= n < 2**64 as sorted (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"cannot factor {n}; need a positive integer")
    if n >= PRIME_TEST_LIMIT:
        raise UnsupportedRangeError(
            f"factorization supports n < 2**64, got {n}"
        )
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(factors.items())
