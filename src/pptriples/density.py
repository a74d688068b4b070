"""Exact counts behind the gap-family density limits, from totient sums.

The parameter pool P(B) of coprime pairs 0 < s < r <= B has size
S(B) - 1, where S(B) = sum(phi(k), k <= B) ~ (3/pi^2) B^2.  Each of the
three hypotenuse-gap family classes corresponds to a parity-constrained
pair set whose size grows like (1/pi^2) B^2, via the halved-totient
identity for odd moduli and the even-index sum E(B) = sum(phi(k), k <= B,
k even), so each class occupies a limiting third of its pool.

S and E come from `TotientSums`: a memoized Dirichlet-hyperbola recursion
over a linear-sieve table of the prefix sums S(0..L), L about B^(2/3), so a
count at B costs about B^(2/3) time and table memory instead of B.  Each
row's ratio is an exact integer pair in lowest terms.  `density_report`
builds that table when it is called and counts each grid row when it is
read, so its first row waits for the table, not for the recursion of the
largest bounds.  The full-sieve sums and the identities that cross-check
them (the 2-Euler totient phi2, its divisor sum, Moebius inversion) are in
`tests/oracles.py`.
"""

from __future__ import annotations

import enum
import os
from array import array
from math import gcd
from typing import Iterator, NamedTuple, Sequence

from ._primes import SieveBudgetError

DEFAULT_SIEVE_BUDGET = 10_000_000
BUDGET_ENV_VAR = "PPT_SIEVE_BUDGET"


class Family(enum.Enum):
    GO = "GO"  # odd-square gaps: both pair entries odd
    GEE = "GEE"  # twice-square gaps, even root
    GEO = "GEO"  # twice-square gaps, odd root
    G1 = "G1"  # the single gap-1 family


def _check_budget(bound: int) -> None:
    """Refuse a table of `bound` entries above the budget, DEFAULT_SIEVE_BUDGET
    unless the PPT_SIEVE_BUDGET variable overrides it."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    limit = DEFAULT_SIEVE_BUDGET
    if raw is not None:
        try:
            limit = int(raw)
        except ValueError as exc:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
        if limit < 1:
            raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {limit}")
    if bound > limit:
        raise SieveBudgetError(f"sieve bound {bound} exceeds budget {limit}")


def build_sieve(bound: int) -> array:
    """The totient prefix sums S(0..bound), S(i) = sum(phi(k), k <= i), from
    one linear sieve.

    Entry i holds phi(i) until i is visited: phi(i) is final then and only
    the multiples i * p read it, so the visit overwrites it with S(i).  The
    budget bounds the memory: the 8-byte table plus the list of primes below
    bound, 11.1 to 12.7 traced bytes per entry at peak (10**6 to 15,874).
    `TotientSums` reads the table in place, so that is its peak too.
    """
    if bound < 1:
        raise ValueError(f"sieve bound must be positive, got {bound}")
    _check_budget(bound)
    table = array("q", [0]) * (bound + 1)
    table[1] = total = 1
    primes: list[int] = []
    for i in range(2, bound + 1):
        phi = table[i]
        if phi == 0:
            primes.append(i)
            phi = i - 1
        for p in primes:
            ip = i * p
            if ip > bound:
                break
            if i % p == 0:
                table[ip] = phi * p
                break
            table[ip] = phi * (p - 1)
        total += phi
        table[i] = total
    return table


def table_bound(top: int) -> int:
    """ceil(top^(2/3)), the least L with L**3 >= top**2: the prefix table
    size that balances table lookups against the recursion for sums up to top."""
    n = top * top
    lo, hi = 1, 1 << -(-n.bit_length() // 3)  # hi**3 >= 2**bit_length > n
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**3 >= n:
            hi = mid
        else:
            lo = mid + 1
    return lo


class TotientSums:
    """Exact totient sums S(x) = sum(phi(k), 1 <= k <= x) and the even-index
    sums E(x) = sum(phi(k), k <= x, k even), for any x >= 0.

    x up to the table bound reads the `build_sieve` table in place.  A larger
    x runs S(x) = x(x+1)/2 - sum(S(x // d), 2 <= d <= x), which is the
    divisor-sum identity sum(phi(d), d | n) = n summed over n <= x, with
    the d of equal x // d taken as one block; every S(x) above the table is
    memoized.  E(x) = sum(S(x >> j), j >= 1), since phi(2m) is phi(m) for
    odd m and 2 phi(m) for even m; each x >> j is an x // d key, so E reads
    the memo.  Over a table of about top^(2/3) entries (`up_to`) the sums
    up to top cost about top^(2/3) steps.
    """

    def __init__(self, prefix: array):
        self.bound = len(prefix) - 1
        self._prefix = prefix
        self._memo: dict[int, int] = {}

    @classmethod
    def up_to(cls, top: int) -> TotientSums:
        """Sums over a table of `table_bound(top)` entries; the budget bounds that table."""
        return cls(build_sieve(table_bound(top)))

    def S(self, x: int) -> int:
        prefix, bound = self._prefix, self.bound
        if x <= bound:
            return prefix[x]
        total = self._memo.get(x)
        if total is None:
            total = x * (x + 1) // 2
            d = 2
            while d <= x:
                q = x // d
                d_next = x // q + 1
                total -= (d_next - d) * (prefix[q] if q <= bound else self.S(q))
                d = d_next
            self._memo[x] = total
        return total

    def E(self, x: int) -> int:
        total = 0
        while x > 1:
            x >>= 1
            total += self.S(x)
        return total


def _check_B(B: int) -> None:
    if B < 1:
        raise ValueError(f"need B >= 1, got {B}")


def count_pool(B: int, sums: TotientSums) -> int:
    """#{(r, s): gcd(r, s) = 1, 0 < s < r <= B} = sum(phi(r), 2 <= r <= B).

    The r = 1 term of the bare totient sum would count a pair (1, s) with
    0 < s < 1 that does not exist, so it is subtracted here.
    """
    _check_B(B)
    return sums.S(B) - 1


def count_GO(B: int, sums: TotientSums) -> int:
    """#{(k, m): gcd = 1, 0 < m < k <= B, both odd}.

    For odd k >= 3, exactly phi(k)/2 of the coprime residues below k are
    odd (m and k - m pair off with opposite parity).  The odd-index sum is
    S(B) - E(B); k = 1 has no residue below it, so its phi(1) = 1 is taken
    off first.
    """
    _check_B(B)
    return (sums.S(B) - sums.E(B) - 1) // 2


def count_GEE(B: int, sums: TotientSums) -> int:
    """#{(k, m): gcd = 1, 0 < m < k <= B, k odd, m even}.

    The other half of the coprime residues of each odd k, hence the same
    halved-totient sum as `count_GO`.
    """
    return count_GO(B, sums)


def count_GEO(B: int, sums: TotientSums) -> int:
    """#{(k, m): gcd = 1, 0 < m < k <= B, k even, m odd}: every coprime
    residue of an even modulus is odd, so this is the even-index sum E(B)."""
    _check_B(B)
    return sums.E(B)


def count_G1(B: int) -> int:
    """#{(n+1, n): n + 1 <= B}, the pairs behind the gap-1 family."""
    _check_B(B)
    return B - 1


class DensityRow(NamedTuple):
    """One row of a density sweep.  `ratio` (family_count / pool_count) and
    `predicted` are exact (numerator, denominator) pairs in lowest terms;
    `Fraction(*row.ratio)` gives the rational."""

    B: int
    family_count: int
    pool_count: int
    ratio: tuple[int, int]
    predicted: tuple[int, int]


def render_ratio(ratio: tuple[int, int]) -> str:
    """Fixed-point decimal rendering of a nonnegative ratio (numerator,
    denominator > 0), half up, to six places."""
    num, den = ratio
    scale = 10**6
    q = (2 * num * scale + den) // (2 * den)
    return f"{q // scale}.{q % scale:06d}"


# family -> (family count at bound B, limiting share of the pool)
_FAMILIES = {
    Family.GO: (count_GO, (1, 3)),
    Family.GEE: (count_GEE, (1, 3)),
    Family.GEO: (count_GEO, (1, 3)),
    Family.G1: (lambda B, sums: count_G1(B), (0, 1)),
}


def density_report(family: Family, grid: Sequence[int]) -> Iterator[DensityRow]:
    """Exact family and pool counts with the limiting prediction per bound.

    The grid must be ascending with entries >= 2 (a pool exists only from
    B = 2 on).  Predictions are the asymptotic ratios 1/3 (parity classes)
    and 0 (the single gap-1 family against a quadratically growing pool).
    The call checks the grid and builds one `TotientSums` over a table of
    `table_bound(max(grid))` entries, which the budget bounds, so every
    refusal comes before the first row.  It returns an iterator that counts
    each row when it is read, in ascending B: a reader that stops early is
    spared the recursion of the larger bounds.
    """
    family = Family(family)
    grid = list(grid)  # the rows read the grid that was checked
    if not grid:
        raise ValueError("empty grid")
    if any(b < 2 for b in grid):
        raise ValueError("grid entries must be >= 2")
    if grid != sorted(set(grid)):
        raise ValueError("grid must be strictly ascending")
    sums = TotientSums.up_to(grid[-1])
    count, predicted = _FAMILIES[family]

    def rows() -> Iterator[DensityRow]:
        for B in grid:
            fc, pc = count(B, sums), count_pool(B, sums)
            d = gcd(fc, pc)
            yield DensityRow(B, fc, pc, (fc // d, pc // d), predicted)

    return rows()
