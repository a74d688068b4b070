import math
import random
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

from pptriples import (
    DELTA,
    GAMMA,
    ONE,
    SQRT2,
    ZERO,
    QuadInt,
    UnsupportedRangeError,
    canonical_associate,
    gcd,
    ideal_generator,
    is_prime,
    splits,
)
from pptriples.zsqrt2 import _orbit_low

from oracles import euclid_div, euclid_gcd, euclid_ideal_generator, is_associate

coords = st.integers(min_value=-(10**6), max_value=10**6)
elements = st.builds(QuadInt, coords, coords)
nonzero = elements.filter(lambda q: not q.is_zero())
wide_coords = st.integers(min_value=-(10**30), max_value=10**30)
wide = st.builds(QuadInt, wide_coords, wide_coords)


class TestArithmetic:
    def test_norm_example(self):
        assert QuadInt(3, 1).norm == 7

    def test_mul_example(self):
        assert QuadInt(1, 1) * QuadInt(3, 2) == QuadInt(7, 5)

    @given(elements)
    def test_conjugate_involution(self, q):
        assert q.conjugate().conjugate() == q

    @given(elements, elements)
    def test_norm_multiplicative(self, a, b):
        assert (a * b).norm == a.norm * b.norm

    @given(elements, elements)
    def test_conjugation_is_ring_map(self, a, b):
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(elements, elements, elements)
    def test_ring_axioms(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    @given(elements)
    def test_norm_of_conjugate_product(self, u):
        assert (u * u.conjugate()).norm == u.norm**2

    def test_an_int_on_either_side_is_ring_arithmetic(self):
        q = QuadInt(1, 2)
        cases = [
            (3 * q, QuadInt(3, 6)), (q * 3, QuadInt(3, 6)),
            (1 + q, QuadInt(2, 2)), (q + 1, QuadInt(2, 2)),
            (1 - q, QuadInt(0, -2)), (q - 1, QuadInt(0, 2)),
            (0 * q, ZERO), (sum([q, q]), QuadInt(2, 4)),
        ]
        for got, want in cases:
            assert type(got) is QuadInt and got == want

    @pytest.mark.parametrize("other", [(3, 4), (), [3, 4], 2.0, "x"])
    def test_no_tuple_concatenation_or_repetition(self, other):
        q = QuadInt(1, 2)
        for op in (
            lambda: q + other, lambda: other + q, lambda: q - other,
            lambda: other - q, lambda: q * other, lambda: other * q,
        ):
            with pytest.raises(TypeError):
                op()

    def test_product_is_exactly_a_quadint(self):
        class Sub(QuadInt):
            pass

        q = QuadInt(1, 2)
        cases = [
            (q * QuadInt(3, 1), QuadInt(7, 7)), (q * 3, QuadInt(3, 6)),
            (3 * q, QuadInt(3, 6)), (q * True, q),
            (q * Sub(3, 1), QuadInt(7, 7)), (Sub(3, 1) * q, QuadInt(7, 7)),
            (Sub(3, 1) * 2, QuadInt(6, 2)),
        ]
        for got, want in cases:
            assert type(got) is QuadInt and got == want
        with pytest.raises(TypeError):
            q * (3, 1)

    def test_immutable(self):
        q = QuadInt(1, 2)
        with pytest.raises(AttributeError):
            q.x = 3
        with pytest.raises(AttributeError):
            q.extra = 3

    def test_pow(self):
        assert GAMMA**2 == DELTA
        assert DELTA**0 == ONE
        assert DELTA**-1 == DELTA.conjugate()
        assert GAMMA**-1 == QuadInt(-1, 1)
        with pytest.raises(ZeroDivisionError):
            QuadInt(3, 1) ** -1


class TestEuclidDiv:
    def test_examples(self):
        q, r = euclid_div(QuadInt(5, 3), QuadInt(1, 1))
        assert (q, r) == (QuadInt(1, 2), ZERO)
        q, r = euclid_div(QuadInt(9, 7), ONE)
        assert (q, r) == (QuadInt(9, 7), ZERO)
        _, r = euclid_div(QuadInt(3, 0), QuadInt(3, 1))
        assert abs(r.norm) < 7

    def test_rejects_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            euclid_div(ONE, ZERO)

    def test_contract_on_random_pairs(self):
        rng = random.Random(0xA1FA)
        for _ in range(10_000):
            alpha = QuadInt(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
            beta = QuadInt(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
            if beta.is_zero():
                continue
            q, r = euclid_div(alpha, beta)
            assert alpha == beta * q + r
            assert abs(r.norm) < abs(beta.norm)

    @given(elements, nonzero)
    def test_contract(self, alpha, beta):
        q, r = euclid_div(alpha, beta)
        assert alpha == beta * q + r
        assert abs(r.norm) < abs(beta.norm)


class TestCanonicalAssociate:
    def test_units_normalize_to_one(self):
        for unit in (GAMMA, -GAMMA, GAMMA**3, GAMMA**-2, -ONE):
            assert canonical_associate(unit) == ONE

    def test_sqrt2(self):
        assert canonical_associate(SQRT2) == SQRT2
        assert canonical_associate(-SQRT2) == SQRT2
        assert canonical_associate(SQRT2 * GAMMA**2) == SQRT2

    @given(nonzero)
    def test_idempotent_and_associate(self, u):
        v = canonical_associate(u)
        assert is_associate(u, v)
        assert canonical_associate(v) == v
        assert canonical_associate(-u) == v
        assert canonical_associate(u * GAMMA) == v

    @given(nonzero, st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1)]))
    def test_matches_a_scan_of_associates(self, u, form):
        # t*(1 +/- sqrt(2)) and t*(2 +/- sqrt(2)) tie in |x| with a neighbour
        # on their DELTA orbit, and t and t*sqrt(2) are what the order prefers
        t = u.x or 1
        for v in (u, QuadInt(*form) * t):
            scan = [s * v * GAMMA**k for k in range(-30, 31) for s in (1, -1)]
            want = min(scan, key=lambda w: (abs(w.x), w.x <= 0, abs(w.y), w.y < 0))
            assert canonical_associate(v) == want


def _scan_low(u, coord, span=60):
    """The least k in [-span, span] at which |coord(u * DELTA**k)| is least,
    by evaluating every k; it must lie inside the window."""
    sizes = {k: abs(coord(u * DELTA**k)) for k in range(-span, span + 1)}
    k = min(sizes, key=lambda k: (sizes[k], k))
    assert -span < k < span
    return k


class TestOrbitLow:
    # norms +1, -1, -2, +7, -7, -2 (x = 0 at k = -1), +49 (y = 0 at k = -3),
    # -1 and +2 (each a tie in |x| and in |y|, at k = -10 and -5), and a large
    # positive one
    @pytest.mark.parametrize(
        "u",
        [
            ONE, GAMMA, SQRT2, QuadInt(3, 1), QuadInt(1, 2), QuadInt(4, 3),
            QuadInt(7, 0) * DELTA**3, -GAMMA * DELTA**9, QuadInt(2, -1) * DELTA**5,
            QuadInt(10**12 + 39, -5),
        ],
    )
    @pytest.mark.parametrize("coord", ["x", "y"])
    def test_examples(self, u, coord):
        k, v = _orbit_low(u, attrgetter(coord))
        assert (k, v) == (_scan_low(u, attrgetter(coord)), u * DELTA**k)

    @given(nonzero, st.sampled_from(["x", "y"]))
    def test_matches_the_scan(self, u, coord):
        k, v = _orbit_low(u, attrgetter(coord))
        assert (k, v) == (_scan_low(u, attrgetter(coord)), u * DELTA**k)

    def test_zero_ends(self):
        # every k ties on ZERO's orbit, so a walk that steps on ties never ends
        assert _orbit_low(ZERO) == (0, ZERO)
        assert _orbit_low(ZERO, attrgetter("y")) == (0, ZERO)


class TestGcd:
    def test_examples(self):
        g = gcd(QuadInt(7, 0), QuadInt(3, 1))
        assert is_associate(g, QuadInt(3, 1))
        assert gcd(QuadInt(9, 7), ZERO) == canonical_associate(QuadInt(9, 7))
        assert is_associate(gcd(QuadInt(2, 0), SQRT2), SQRT2)

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            gcd(ZERO, ZERO)

    def test_divides_both(self):
        rng = random.Random(0xBEEF)
        for _ in range(300):
            a = QuadInt(rng.randint(-500, 500), rng.randint(-500, 500))
            b = QuadInt(rng.randint(-500, 500), rng.randint(-500, 500))
            if a.is_zero() and b.is_zero():
                continue
            g = gcd(a, b)
            assert euclid_div(a, g)[1].is_zero() and euclid_div(b, g)[1].is_zero()

    def test_scaling_property(self):
        rng = random.Random(0xCAFE)
        for _ in range(100):
            a = QuadInt(rng.randint(-40, 40), rng.randint(-40, 40))
            b = QuadInt(rng.randint(-40, 40), rng.randint(-40, 40))
            c = QuadInt(rng.randint(-40, 40), rng.randint(-40, 40))
            if (a.is_zero() and b.is_zero()) or c.is_zero():
                continue
            assert is_associate(gcd(c * a, c * b), c * gcd(a, b))

    @given(
        st.one_of(wide, st.just(ZERO)), st.one_of(wide, st.just(ZERO)),
        st.one_of(st.just(ONE), wide.filter(lambda q: not q.is_zero())),
    )
    def test_matches_the_euclidean_gcd(self, a, b, c):
        # c is a shared factor in about half of the cases
        if not (a.is_zero() and b.is_zero()):
            assert gcd(c * a, c * b) == euclid_gcd(c * a, c * b)


class TestSplits:
    @pytest.mark.parametrize("p,expect", [(7, True), (17, True), (23, True), (3, False), (2, False), (5, False), (13, False)])
    def test_examples(self, p, expect):
        assert splits(p) is expect

    @pytest.mark.parametrize("bad", [0, 1, 4, 9, 15])
    def test_rejects_non_prime(self, bad):
        with pytest.raises(ValueError):
            splits(bad)

    def test_rejects_out_of_range(self):
        with pytest.raises(UnsupportedRangeError):
            splits(2**64 + 13)


def _scan_generator(p):
    """The norm +/-p element x + y*sqrt(2) with x, y > 0 and the least y, by
    scanning y = 1, 2, ... for a perfect square p + 2*y*y or 2*y*y - p; the
    least y is at most 2*ceil(sqrt(p))."""
    for y in range(1, 2 * (math.isqrt(p - 1) + 1) + 1):
        for t in (p + 2 * y * y, 2 * y * y - p):
            if t > 0 and math.isqrt(t) ** 2 == t:
                return QuadInt(math.isqrt(t), y)
    raise AssertionError(f"no element of norm +/-{p}")


class TestIdealGenerator:
    def test_examples(self):
        assert ideal_generator(7) == QuadInt(3, 1)
        assert ideal_generator(17) == QuadInt(5, 2)
        assert ideal_generator(23) == QuadInt(5, 1)

    def test_rejects_inert_prime(self):
        with pytest.raises(ValueError):
            ideal_generator(3)

    def test_matches_the_scan_for_every_split_prime_below_1e5(self):
        for p in range(3, 10**5, 2):
            if p % 8 in (1, 7) and is_prime(p):
                assert ideal_generator(p) == _scan_generator(p), p

    def test_matches_the_euclidean_route_for_random_primes_near_2_64(self):
        rng, primes = random.Random(0x5EED), []
        while len(primes) < 300:
            p = rng.randrange(2**40, 2**64)
            if p % 8 in (1, 7) and is_prime(p):
                primes.append(p)
        for p in primes:
            assert ideal_generator(p) == euclid_ideal_generator(p), p

    @pytest.mark.parametrize("p", [65537, 167772161, 469762049, 998244353, 2**64 - 2**32 + 1])
    def test_matches_the_euclidean_route_where_p_minus_1_has_a_large_power_of_2(self, p):
        # 2**16 to 2**32 divides p - 1, so Tonelli-Shanks runs its longest loops
        assert ideal_generator(p) == euclid_ideal_generator(p)

    def test_primes_near_1e12_and_2_64(self):
        assert ideal_generator(1000000000921) == QuadInt(1162773, 419548)
        assert ideal_generator(18446744073709551521) == QuadInt(4981338611, 1784235170)

    def test_norm_and_genuine_splitting(self):
        split_primes = [p for p in range(3, 1000, 2) if is_prime(p) and splits(p)]
        for p in split_primes:
            u = ideal_generator(p)
            assert abs(u.norm) == p
            prod = u * u.conjugate()
            assert prod in (QuadInt(p, 0), QuadInt(-p, 0))
            # a split prime's two factors are genuinely distinct ideals
            assert not is_associate(u, u.conjugate())
