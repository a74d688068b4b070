import math
import random
from array import array
from fractions import Fraction
from itertools import accumulate, repeat
from operator import countOf

import pytest
from hypothesis import given, settings, strategies as st

import pptriples
from pptriples import (
    DensityRow,
    Family,
    ParamPair,
    SieveBudgetError,
    TotientSums,
    build_sieve,
    count_G1,
    count_GEE,
    count_GEO,
    count_GO,
    count_pool,
    density_report,
    render_ratio,
)
from pptriples import checks, density
from pptriples.checks import odd_part, pair_count_rows

from oracles import (
    from_params,
    moebius,
    moebius_inversion_check,
    phi2,
    phi2_divisor_sum,
    phi_table,
    sum_phi,
    sum_phi2,
    totient,
)


@pytest.fixture(scope="module")
def prefix():
    return build_sieve(6000)


@pytest.fixture(scope="module")
def sieve(prefix):
    return phi_table(prefix)


@pytest.fixture(scope="module")
def sums(prefix):
    return TotientSums(prefix)


class TestSieve:
    def test_phi_table(self, sieve):
        assert list(sieve[1:11]) == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_mu_values(self):
        assert moebius(1) == 1
        assert moebius(2) == -1
        assert moebius(6) == 1
        assert moebius(12) == 0
        assert moebius(30) == -1
        assert all(moebius(n) in (-1, 0, 1) for n in range(1, 200))

    def test_phi_prime_and_multiplicative_spot_checks(self, sieve):
        for p in (2, 3, 5, 7, 11, 101, 997):
            assert sieve[p] == p - 1
        for a, b in ((3, 8), (5, 9), (7, 16), (11, 45)):
            assert math.gcd(a, b) == 1
            assert sieve[a * b] == sieve[a] * sieve[b]

    def test_table_is_the_running_sum_of_the_oracle_totient(self):
        """The one-pass table equals `accumulate` over the factorization
        totient at every bound to 2000, and at 10**5."""
        want = list(accumulate(map(totient, range(1, 2001)), initial=0))
        for bound in range(1, 2001):
            assert build_sieve(bound).tolist() == want[: bound + 1], bound
        want = accumulate(map(totient, range(1, 10**5 + 1)), initial=0)
        assert build_sieve(10**5).tolist() == list(want)

    def test_build_sieve_returns_the_table(self):
        for n in (1, 2, 10, 97):
            table = build_sieve(n)
            assert type(table) is array and table.typecode == "q" and len(table) == n + 1
        # the table is the public type: no sieve wrapper is exported
        assert [name for name in pptriples.__all__ if "Sieve" in name] == ["SieveBudgetError"]

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("PPT_SIEVE_BUDGET", "100")
        with pytest.raises(SieveBudgetError, match="sieve bound 1000 exceeds budget 100"):
            build_sieve(1000)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("PPT_SIEVE_BUDGET", "50")
        with pytest.raises(SieveBudgetError):
            build_sieve(1000)
        build_sieve(50)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            build_sieve(0)


class TestPhi2:
    def test_examples(self, sieve):
        assert phi2(9, sieve) == 6
        assert phi2(8, sieve) == 0
        assert phi2(1, sieve) == 1

    def test_divisor_sum_examples(self):
        assert phi2_divisor_sum(12) == 3
        assert phi2_divisor_sum(9) == 9
        assert phi2_divisor_sum(1) == 1

    def test_divisor_sum_equals_odd_part_small(self):
        for n in range(1, 600):
            assert phi2_divisor_sum(n) == odd_part(n)


class TestSums:
    def test_examples(self, sieve):
        assert sum_phi(10, sieve) == 32
        assert sum_phi2(10, sieve) == 19
        assert sum_phi(1, sieve) == 1

    def test_pool_examples(self, sums):
        assert count_pool(10, sums) == 31
        assert count_pool(2, sums) == 1
        assert count_pool(1, sums) == 0

    def test_family_count_examples(self, sums):
        assert count_GO(10, sums) == 9
        assert count_GEO(10, sums) == 13
        assert count_GEE(10, sums) == 9
        assert count_G1(10) == 9

    def test_out_of_range(self, sieve):
        with pytest.raises(ValueError):
            sum_phi(6001, sieve)


def brute_pair_counts(b_max):
    """Prefix pair counts per parity class from a raw double loop with
    explicit gcd tests; index B holds the count for bound B."""
    pool = [0] * (b_max + 1)
    go = [0] * (b_max + 1)
    gee = [0] * (b_max + 1)
    geo = [0] * (b_max + 1)
    for k in range(2, b_max + 1):
        # one gcd per pair (k, m), 0 < m < k; odd and even m counted apart
        n_odd = countOf(map(math.gcd, repeat(k), range(1, k, 2)), 1)
        n_even = countOf(map(math.gcd, repeat(k), range(2, k, 2)), 1)
        odd_k = k % 2  # odd k: GO takes the odd m, GEE the even; even k: GEO the odd
        pool[k] = pool[k - 1] + n_odd + n_even
        go[k] = go[k - 1] + n_odd * odd_k
        gee[k] = gee[k - 1] + n_even * odd_k
        geo[k] = geo[k - 1] + n_odd * (1 - odd_k)
    return {"pool": pool, "GO": go, "GEE": gee, "GEO": geo}


def test_formulas_match_enumeration_to_300(sums):
    brute = brute_pair_counts(300)
    for B in range(1, 301):
        assert count_pool(B, sums) == brute["pool"][B]
        assert count_GO(B, sums) == brute["GO"][B]
        assert count_GEE(B, sums) == brute["GEE"][B]
        assert count_GEO(B, sums) == brute["GEO"][B]


def test_brute_pair_counts_match_a_literal_double_loop():
    b_max = 300
    want = {name: [0] * (b_max + 1) for name in ("pool", "GO", "GEE", "GEO")}
    for k in range(2, b_max + 1):
        row = dict.fromkeys(want, 0)
        for m in range(1, k):
            if math.gcd(k, m) == 1:
                row["pool"] += 1
                if k % 2 == 1 and m % 2 == 1:
                    row["GO"] += 1
                elif k % 2 == 1:
                    row["GEE"] += 1
                elif m % 2 == 1:
                    row["GEO"] += 1
        for name, counts in want.items():
            counts[k] = counts[k - 1] + row[name]
    assert brute_pair_counts(b_max) == want


class TestPairCountRows:
    """The inclusion-exclusion referee of `check_density_cross` against the
    gcd double loop."""

    @pytest.mark.parametrize("b_max", [1, 2, 3, 2000])
    def test_matches_the_double_loop_at_every_bound(self, b_max):
        brute = brute_pair_counts(b_max)
        assert list(pair_count_rows(b_max)) == [
            (B, brute["pool"][B], brute["GO"][B], brute["GEE"][B], brute["GEO"][B])
            for B in range(1, b_max + 1)
        ]

    @pytest.mark.parametrize("b_max", [2000, 3000])
    def test_density_cross_makes_no_gcd_call(self, monkeypatch, b_max):
        # trial division needs no gcd at any bound; `factorize` would reach
        # Pollard rho, and its gcd, from k = 53**2 = 2809 on
        def refuse(*args):
            raise AssertionError("gcd called")

        monkeypatch.setattr(math, "gcd", refuse)
        report = checks.check_density_cross(b_max)
        assert (report.checks, report.failures) == (4 * b_max, 0)


def oracle_counts(B, sieve):
    """pool, GO, GEE and GEO at B from direct slice sums over a full sieve."""
    every, odd = sum_phi(B, sieve), sum_phi2(B, sieve)
    return {"pool": every - 1, "GO": (odd - 1) // 2, "GEE": (odd - 1) // 2, "GEO": every - odd}


def fast_counts(B, sums):
    return {
        "pool": count_pool(B, sums),
        "GO": count_GO(B, sums),
        "GEE": count_GEE(B, sums),
        "GEO": count_GEO(B, sums),
    }


class TestTotientSums:
    """The sublinear sums against the full-sieve oracle in `tests/oracles.py`."""

    def test_every_bound_to_3000(self, sieve):
        sums = TotientSums.up_to(3000)
        assert sums.bound == density.table_bound(3000) < 3000
        for B in range(1, 3001):
            assert fast_counts(B, sums) == oracle_counts(B, sieve), B

    @pytest.mark.parametrize("top", [2, 10, 999, 5000, 12345, 10**6])
    def test_around_the_table_cutoff(self, top, sieve_1e6):
        sums = TotientSums.up_to(top)
        L = sums.bound
        assert L**3 >= top * top > (L - 1) ** 3
        for B in (L - 1, L, L + 1, top):
            if B >= 1:
                assert fast_counts(B, sums) == oracle_counts(B, sieve_1e6), B

    def test_seeded_sample_to_1e6(self, sieve_1e6):
        sums = TotientSums.up_to(10**6)
        sample = random.Random(20211).sample(range(2, 10**6), 60) + [10**6]
        for B in sample:
            assert fast_counts(B, sums) == oracle_counts(B, sieve_1e6), B

    def test_grid_points_off_the_top_keys(self, sieve_1e6):
        top = 10**6
        grid = [4321, 123457, 654321, 999999, top]
        keys = {top // d for d in range(1, top + 1)}
        assert not set(grid[:-1]) & keys
        for family in (Family.GO, Family.GEE, Family.GEO):
            for row in density_report(family, grid):
                want = oracle_counts(row.B, sieve_1e6)
                assert (row.family_count, row.pool_count) == (want[family.value], want["pool"])

    def test_known_totient_sums(self):
        # sum(phi(k), k <= 10**n), OEIS A064018
        sums = TotientSums.up_to(10**8)
        assert [sums.S(10**n) for n in range(9)] == [
            1, 32, 3044, 304192, 30397486, 3039650754, 303963552392,
            30396356427242, 3039635516365908,
        ]

    def test_report_allocates_a_table_of_about_top_to_the_two_thirds(self, monkeypatch):
        bounds = []

        def recording(bound):
            bounds.append(bound)
            return build_sieve(bound)

        monkeypatch.setattr(density, "build_sieve", recording)
        rows = density_report(Family.GEO, [10, 10**8])
        assert [row.pool_count for row in rows] == [31, 3039635516365907]
        (bound,) = bounds
        assert (bound - 1) ** 3 < 10**16  # bound <= 10**(16/3) + 1

    def test_budget_bounds_the_table_not_the_top(self, monkeypatch, sieve):
        monkeypatch.setenv("PPT_SIEVE_BUDGET", "100")
        (row,) = density_report(Family.GO, [1000])  # a table of 100 entries
        assert row.pool_count == sum_phi(1000, sieve) - 1
        with pytest.raises(SieveBudgetError):
            density_report(Family.GO, [1001])

    def test_density_cross_refuses_a_b_max_above_the_budget(self, monkeypatch):
        monkeypatch.setenv("PPT_SIEVE_BUDGET", "100")
        assert checks.check_density_cross(100).ok
        with pytest.raises(SieveBudgetError, match="sieve bound 101 exceeds budget 100"):
            checks.check_density_cross(101)  # its table, 22 entries, would fit

    def test_full_sieve_sums_are_test_oracles(self):
        for name in ("sum_phi", "sum_phi2"):
            assert name not in pptriples.__all__
            assert not hasattr(checks, name)


def test_half_totient_identity_for_odd_moduli(sieve):
    """Odd coprime residues of an odd modulus are exactly half of them."""
    for N in range(3, 5002, 2):
        direct = sum(1 for m in range(1, N, 2) if math.gcd(m, N) == 1)
        assert 2 * direct == sieve[N]


class TestMoebiusInversion:
    def test_examples(self, sieve):
        assert moebius_inversion_check(9, sieve)
        assert moebius_inversion_check(8, sieve)
        assert moebius_inversion_check(1, sieve)

    def test_small_range(self, sieve):
        assert all(moebius_inversion_check(n, sieve) for n in range(1, 600))


class TestReport:
    def test_go_row(self):
        (row,) = density_report(Family.GO, [10])
        assert (row.B, row.family_count, row.pool_count) == (10, 9, 31)
        assert row.ratio == (9, 31)
        assert render_ratio(row.ratio) == "0.290323"
        assert render_ratio(row.predicted) == "0.333333"

    def test_g1_row(self):
        (row,) = density_report(Family.G1, [10])
        assert row.family_count == 9 and row.predicted == (0, 1)

    def test_geo_row(self):
        (row,) = density_report(Family.GEO, [10])
        assert row.family_count == 13

    def test_grid_validation(self):
        # the call itself refuses, before any row is read, as it does a
        # table over the budget (test_budget_bounds_the_table_not_the_top)
        with pytest.raises(ValueError):
            density_report(Family.GO, [])
        with pytest.raises(ValueError):
            density_report(Family.GO, [1, 10])
        with pytest.raises(ValueError):
            density_report(Family.GO, [100, 10])

    def test_rows_are_counted_when_read(self, monkeypatch):
        asked = []
        S = TotientSums.S
        monkeypatch.setattr(TotientSums, "S", lambda self, x: asked.append(x) or S(self, x))
        rows = density_report(Family.GO, [10, 100, 10**6])
        assert iter(rows) is rows and asked == []  # an iterator, nothing counted yet
        assert next(rows).B == 10 and 10**6 not in asked
        assert next(rows).B == 100 and 10**6 not in asked
        assert next(rows).B == 10**6 and 10**6 in asked
        assert next(rows, None) is None

    def test_trend_downward(self):
        rows = density_report(Family.G1, [10, 100, 1000])
        ratios = [Fraction(*row.ratio) for row in rows]
        assert ratios == sorted(ratios, reverse=True)


def eager_report(family, grid):
    """The rows as `density_report` counted them all before returning."""
    sums = TotientSums.up_to(max(grid))
    count, predicted = {
        Family.GO: (count_GO, (1, 3)),
        Family.GEE: (count_GEE, (1, 3)),
        Family.GEO: (count_GEO, (1, 3)),
        Family.G1: (lambda B, sums: count_G1(B), (0, 1)),
    }[family]
    rows = []
    for B in grid:
        fc = count(B, sums)
        pc = count_pool(B, sums)
        rows.append(DensityRow(B, fc, pc, Fraction(fc, pc).as_integer_ratio(), predicted))
    return rows


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(2, 10**6), min_size=1, max_size=6).map(sorted))
def test_streamed_rows_are_the_eager_rows(grid):
    """Each family's stream equals the eager loop, and the three parity
    classes partition the pool at every bound."""
    by_family = {family: list(density_report(family, grid)) for family in Family}
    for family, rows in by_family.items():
        assert rows == eager_report(family, grid), family
    for go, gee, geo in zip(by_family[Family.GO], by_family[Family.GEE], by_family[Family.GEO]):
        assert go.family_count + gee.family_count + geo.family_count == go.pool_count


def test_render_ratio_rounding():
    assert render_ratio((1, 3)) == "0.333333"
    assert render_ratio((0, 1)) == "0.000000"
    assert render_ratio((1, 2)) == "0.500000"
    assert render_ratio((2, 3)) == "0.666667"
    assert render_ratio((1, 1)) == "1.000000"
    assert render_ratio((1, 2 * 10**6)) == "0.000001"  # a tie rounds up


def render_fraction(value):
    """The six-place, half-up rendering of a `Fraction`, as `render_ratio`
    read one before density rows held integer pairs."""
    scale = 10**6
    q = (2 * value.numerator * scale + value.denominator) // (2 * value.denominator)
    return f"{q // scale}.{q % scale:06d}"


# (2q + 1) / (2 * 10**6) is a tie at the sixth place; a t > 1 takes it off lowest terms
TIES = st.builds(
    lambda q, t: ((2 * q + 1) * t, 2 * 10**6 * t), st.integers(0, 10**12), st.integers(1, 10**6)
)


@given(st.one_of(st.tuples(st.integers(0, 10**30), st.integers(1, 10**30)), TIES))
def test_render_ratio_of_a_pair_is_the_fraction_rendering(pair):
    assert render_ratio(pair) == render_fraction(Fraction(*pair))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(Family), st.sets(st.integers(2, 10**6), min_size=1, max_size=4).map(sorted))
def test_row_ratios_are_the_counts_in_lowest_terms(family, grid):
    for row in density_report(family, grid):
        assert math.gcd(*row.ratio) == 1
        assert Fraction(*row.ratio) == Fraction(row.family_count, row.pool_count)


def test_geometric_consistency_with_generators(sums):
    """The odd-pair set maps one-to-one onto the primitive parameter pairs
    with r + s <= B; every image triple has an odd-square hypotenuse gap."""
    B = 500
    from_pairs = set()
    for k in range(3, B + 1, 2):
        for m in range(1, k, 2):
            if math.gcd(k, m) == 1:
                from_pairs.add(from_params(ParamPair((k + m) // 2, (k - m) // 2)))
    direct = set()
    for r in range(2, B):
        for s in range(1, r):
            if r + s <= B and (r + s) % 2 and math.gcd(r, s) == 1:
                direct.add(from_params(ParamPair(r, s)))
    assert from_pairs == direct
    assert len(from_pairs) == count_GO(B, sums)
    for t in list(from_pairs)[:50]:
        assert t.b % 2 == 0
        root = math.isqrt(t.c - t.b)
        assert root * root == t.c - t.b and root % 2 == 1


def test_asymptotic_convergence(sieve_1e6):
    """Relative errors shrink along the grid; fitted constants reported."""
    pi2 = math.pi**2
    grid = (10**3, 10**4, 10**5, 10**6)
    err_phi, err_phi2 = [], []
    for B in grid:
        err_phi.append(abs(sum_phi(B, sieve_1e6) * pi2 / (3 * B * B) - 1))
        err_phi2.append(abs(sum_phi2(B, sieve_1e6) * pi2 / (2 * B * B) - 1))
    assert err_phi == sorted(err_phi, reverse=True)
    assert err_phi2 == sorted(err_phi2, reverse=True)
    c_phi = max(e * B / math.log(B) for e, B in zip(err_phi, grid))
    c_phi2_log2 = max(e * B / math.log2(B) for e, B in zip(err_phi2, grid))
    c_phi2_log = max(e * B / math.log(B) for e, B in zip(err_phi2, grid))
    print(f"fitted constants: sum_phi C={c_phi:.4f} (log form); "
          f"sum_phi2 C={c_phi2_log2:.4f} (log2 form), {c_phi2_log:.4f} (log form)")
    for e, B in zip(err_phi, grid):
        assert e <= c_phi * math.log(B) / B
    for e, B in zip(err_phi2, grid):
        assert e <= c_phi2_log2 * math.log2(B) / B
