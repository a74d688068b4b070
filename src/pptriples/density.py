"""Totient sieves and exact counts behind the gap-family density limits.

The parameter pool P(B) of coprime pairs 0 < s < r <= B has size
sum(phi(r), 2 <= r <= B) ~ (3/pi^2) B^2.  Each of the three hypotenuse-gap
family classes corresponds to a parity-constrained pair set whose size grows
like (1/pi^2) B^2, via the halved-totient identity for odd moduli and the
2-Euler totient phi2 (phi on odd arguments, 0 on even ones), so each class
occupies a limiting third of its pool.  The identities that cross-check
these sums (phi2 itself, its divisor sum, Moebius inversion) live in
`checks`.
"""

from __future__ import annotations

import enum
import os
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "DEFAULT_SIEVE_BUDGET",
    "BUDGET_ENV_VAR",
    "SieveBudgetError",
    "TotientSieve",
    "Family",
    "DensityRow",
    "sieve_budget",
    "build_sieve",
    "sum_phi",
    "sum_phi2",
    "count_pool",
    "count_GO",
    "count_GEE",
    "count_GEO",
    "count_G1",
    "density_report",
    "render_ratio",
]

DEFAULT_SIEVE_BUDGET = 10_000_000
BUDGET_ENV_VAR = "PPT_SIEVE_BUDGET"


class SieveBudgetError(ValueError):
    """Requested sieve bound exceeds the configured memory budget."""


@dataclass
class TotientSieve:
    """The table of phi(1..bound); index 0 is unused.

    Memory cost is one 8-byte integer table of length bound+1 plus the
    sieve's list of primes below bound, about 11 bytes per entry in all at
    peak; `build_sieve` guards it with the budget.
    """

    bound: int
    phi: array


class Family(enum.Enum):
    GO = "GO"  # odd-square gaps: both pair entries odd
    GEE = "GEE"  # twice-square gaps, even root
    GEO = "GEO"  # twice-square gaps, odd root
    G1 = "G1"  # the single gap-1 family


def sieve_budget() -> int:
    """The sieve bound ceiling; the PPT_SIEVE_BUDGET variable overrides it."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_SIEVE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def build_sieve(bound: int, budget: int | None = None) -> TotientSieve:
    """Build the phi table up to `bound` with a single linear sieve."""
    if bound < 1:
        raise ValueError(f"sieve bound must be positive, got {bound}")
    limit = sieve_budget() if budget is None else budget
    if bound > limit:
        raise SieveBudgetError(f"sieve bound {bound} exceeds budget {limit}")
    phi = array("q", [0]) * (bound + 1)
    phi[1] = 1
    primes: list[int] = []
    for i in range(2, bound + 1):
        if phi[i] == 0:
            primes.append(i)
            phi[i] = i - 1
        for p in primes:
            ip = i * p
            if ip > bound:
                break
            if i % p == 0:
                phi[ip] = phi[i] * p
                break
            phi[ip] = phi[i] * (p - 1)
    return TotientSieve(bound, phi)


def _check_bound(n: int, sieve: TotientSieve) -> None:
    if not 1 <= n <= sieve.bound:
        raise ValueError(f"{n} outside sieve range 1..{sieve.bound}")


def sum_phi(B: int, sieve: TotientSieve) -> int:
    """Exact partial sum of phi(1..B); grows like (3/pi^2) B^2."""
    _check_bound(B, sieve)
    return sum(memoryview(sieve.phi)[1 : B + 1])  # a view: the table is not copied


def sum_phi2(B: int, sieve: TotientSieve) -> int:
    """Exact partial sum of phi2(1..B); grows like (2/pi^2) B^2."""
    _check_bound(B, sieve)
    return sum(memoryview(sieve.phi)[1 : B + 1 : 2])


def count_pool(B: int, sieve: TotientSieve) -> int:
    """#{(r, s): gcd(r, s) = 1, 0 < s < r <= B} = sum(phi(r), 2 <= r <= B).

    The r = 1 term of the bare totient sum would count a pair (1, s) with
    0 < s < 1 that does not exist, so it is subtracted here.
    """
    _check_bound(B, sieve)
    return sum_phi(B, sieve) - 1


def count_GO(B: int, sieve: TotientSieve) -> int:
    """#{(k, m): gcd = 1, 0 < m < k <= B, both odd}.

    For odd k >= 3, exactly phi(k)/2 of the coprime residues below k are
    odd (m and k - m pair off with opposite parity).  k = 1 has no residue
    below it, so its phi(1) = 1 is taken off the odd-index sum first.
    """
    return (sum_phi2(B, sieve) - 1) // 2


def count_GEE(B: int, sieve: TotientSieve) -> int:
    """#{(k, m): gcd = 1, 0 < m < k <= B, k odd, m even}.

    The other half of the coprime residues of each odd k, hence the same
    halved-totient sum as `count_GO`.
    """
    return count_GO(B, sieve)


def count_GEO(B: int, sieve: TotientSieve) -> int:
    """#{(k, m): gcd = 1, 0 < m < k <= B, k even, m odd}: every coprime
    residue of an even modulus is odd, so this is the even-k totient sum."""
    return sum_phi(B, sieve) - sum_phi2(B, sieve)


def count_G1(B: int) -> int:
    """#{(n+1, n): n + 1 <= B}, the pairs behind the gap-1 family."""
    if B < 1:
        raise ValueError(f"need B >= 1, got {B}")
    return B - 1


@dataclass(frozen=True)
class DensityRow:
    """One row of a density sweep; the ratio is kept as an exact rational."""

    B: int
    family_count: int
    pool_count: int
    ratio: Fraction
    predicted: Fraction


def render_ratio(value: Fraction, places: int = 6) -> str:
    """Fixed-point decimal rendering of a nonnegative rational, half up."""
    scale = 10**places
    q = (2 * value.numerator * scale + value.denominator) // (2 * value.denominator)
    return f"{q // scale}.{q % scale:0{places}d}"


# family -> (family count at bound B, limiting share of the pool)
_FAMILIES = {
    Family.GO: (count_GO, Fraction(1, 3)),
    Family.GEE: (count_GEE, Fraction(1, 3)),
    Family.GEO: (count_GEO, Fraction(1, 3)),
    Family.G1: (lambda B, sieve: count_G1(B), Fraction(0)),
}


def density_report(
    family: Family,
    grid: Sequence[int],
    sieve: TotientSieve | None = None,
) -> list[DensityRow]:
    """Exact family and pool counts with the limiting prediction per bound.

    The grid must be ascending with entries >= 2 (a pool exists only from
    B = 2 on).  Predictions are the asymptotic ratios 1/3 (parity classes)
    and 0 (the single gap-1 family against a quadratically growing pool).
    """
    family = Family(family)
    if not grid:
        raise ValueError("empty grid")
    if any(b < 2 for b in grid):
        raise ValueError("grid entries must be >= 2")
    if list(grid) != sorted(set(grid)):
        raise ValueError("grid must be strictly ascending")
    if sieve is None:
        sieve = build_sieve(max(grid))
    count, predicted = _FAMILIES[family]
    rows = []
    for B in grid:
        fc = count(B, sieve)
        pc = count_pool(B, sieve)
        rows.append(DensityRow(B, fc, pc, Fraction(fc, pc), predicted))
    return rows
