import math
import tracemalloc
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from pptriples import (
    ParamPair,
    Triple,
    TripleClass,
    classify_triple,
    enumerate_ppts,
    is_primitive,
    iter_ppt_rows,
    to_params,
)
from pptriples.triples import _WINDOW_FLOOR, _WINDOW_ROOTS

from oracles import from_params, iter_ppts


def reference_ppts(c_max):
    """Reference enumerator: every parameter row at once, then one sort by (c, a)."""
    found = []
    r = 2
    while r * r + 1 <= c_max:
        start = 2 if r % 2 else 1
        for s in range(start, r, 2):
            c = r * r + s * s
            if c > c_max:
                break
            if math.gcd(r, s) == 1:
                found.append(Triple(r * r - s * s, 2 * r * s, c))
        r += 1
    found.sort(key=lambda t: (t.c, t.a))
    return found


def naive_ppt_count(c_max):
    """Independent oracle: scan all leg pairs and test the identity directly."""
    count = 0
    for a in range(1, c_max):
        for b in range(a + 1, c_max):
            c2 = a * a + b * b
            c = math.isqrt(c2)
            if c > c_max:
                break
            if c * c == c2 and math.gcd(a, b) == 1:
                count += 1
    return count


class TestTriple:
    def test_valid(self):
        t = Triple(3, 4, 5)
        assert tuple(t) == (3, 4, 5)

    def test_rejects_non_pythagorean(self):
        with pytest.raises(ValueError):
            Triple(1, 2, 3)

    @pytest.mark.parametrize("bad", [(0, 4, 5), (-3, 4, 5), (3, 4, -5)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Triple(*bad)

    def test_hypotenuse_dominates(self):
        t = Triple(15, 8, 17)
        assert max(t.a, t.b) < t.c


class TestParamPair:
    @pytest.mark.parametrize("r,s", [(2, 2), (1, 1), (2, 0), (0, -1), (3, 4)])
    def test_rejects_degenerate(self, r, s):
        with pytest.raises(ValueError):
            ParamPair(r, s)


class TestRecords:
    """`Triple` and `ParamPair` are immutable named tuples that validate on
    every constructor path."""

    @pytest.mark.parametrize("record,bad", [
        (Triple(3, 4, 5), {"c": 6}),
        (Triple(3, 4, 5), {"a": -3}),
        (ParamPair(2, 1), {"s": 2}),
        (ParamPair(2, 1), {"r": 0}),
    ])
    def test_every_constructor_path_validates(self, record, bad):
        fields = record._asdict() | bad
        with pytest.raises(ValueError):
            type(record)(**fields)
        with pytest.raises(ValueError):
            type(record)._make(fields.values())
        with pytest.raises(ValueError):
            record._replace(**bad)

    @pytest.mark.parametrize("record", [Triple(3, 4, 5), ParamPair(2, 1)])
    def test_valid_paths_keep_the_type(self, record):
        for built in (type(record)._make(record), record._replace(), type(record)(*record)):
            assert type(built) is type(record) and built == record

    @pytest.mark.parametrize("record", [
        Triple(3, 4, 5), ParamPair(2, 1), classify_triple(Triple(3, 4, 5))
    ])
    def test_immutable(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 1)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_a_record_is_its_tuple(self):
        t = Triple(3, 4, 5)
        assert t == (3, 4, 5) and hash(t) == hash((3, 4, 5))
        assert str(t) == "(3, 4, 5)" and repr(t) == "Triple(a=3, b=4, c=5)"
        a, b, c = t
        assert (a, b, c, t[2]) == (3, 4, 5, 5)
        assert Triple(3, 4, 5) < Triple(5, 12, 13)


def test_from_params_examples():
    assert from_params(ParamPair(2, 1)) == (3, 4, 5)
    assert from_params(ParamPair(4, 1)) == (15, 8, 17)


def test_is_primitive_examples():
    assert is_primitive(Triple(3, 4, 5))
    assert not is_primitive(Triple(6, 8, 10))
    assert is_primitive(Triple(15, 8, 17))


def test_to_params_accepts_exactly_the_primitive_triples():
    """The coprime, opposite-parity test on the pair is the primitivity test:
    every pair with r < 40 (so every triple of those pairs, primitive or
    not), in both leg orders."""
    for r in range(2, 40):
        for s in range(1, r):
            pair = ParamPair(r, s)
            t = from_params(pair)
            for ordered in (t, Triple(t.b, t.a, t.c)):
                if is_primitive(ordered):
                    assert to_params(ordered) == pair
                else:
                    with pytest.raises(ValueError, match="is not primitive"):
                        to_params(ordered)


def test_to_params_examples():
    assert to_params(Triple(3, 4, 5)) == (2, 1)
    assert to_params(Triple(15, 8, 17)) == (4, 1)
    assert to_params(Triple(8, 15, 17)) == (4, 1)
    for t in [(6, 8, 10), (8, 6, 10), (45, 108, 117), (9, 12, 15)]:
        # (3, 1) is two odds, (9, 6) shares 3, and (9, 12, 15) has no pair
        with pytest.raises(ValueError):
            to_params(Triple(*t))


def test_roundtrip_up_to_200():
    for r in range(2, 201):
        for s in range(1, r):
            if math.gcd(r, s) == 1 and (r - s) % 2 == 1:
                pair = ParamPair(r, s)
                assert to_params(from_params(pair)) == pair


class TestEnumerate:
    def test_small_bounds(self):
        assert enumerate_ppts(5) == [(3, 4, 5)]
        assert enumerate_ppts(17) == [
            (3, 4, 5),
            (5, 12, 13),
            (15, 8, 17),
        ]
        assert enumerate_ppts(4) == []

    def test_parity_law(self):
        for t in enumerate_ppts(3000):
            assert t.a % 2 == 1 and t.b % 2 == 0 and t.c % 2 == 1

    def test_oracle_self_consistency(self):
        ppts = enumerate_ppts(100)
        for t in ppts:
            assert is_primitive(t)
            assert t.a * t.a + t.b * t.b == t.c * t.c
        assert len(ppts) == naive_ppt_count(100)

    def test_no_duplicates(self):
        ppts = enumerate_ppts(10_000)
        assert len(set(ppts)) == len(ppts)

    def test_canonical_order(self):
        ppts = enumerate_ppts(10_000)
        keys = [(t.c, t.a) for t in ppts]
        assert keys == sorted(keys)


# One below, at and one above the second and fourth window edges: below
# 513**2 every window is _WINDOW_FLOOR wide.
EDGES = [k * _WINDOW_FLOOR + d for k in (2, 4) for d in (-1, 0, 1)]


class TestIterPpts:
    @pytest.mark.parametrize("c_max", [0, 4, 5, 17, *EDGES, 10**6])
    def test_matches_the_reference(self, c_max):
        # compared as a stream, so only the reference list is held
        pairs = zip_longest(iter_ppts(c_max), reference_ppts(c_max))
        assert all(t == ref for t, ref in pairs)

    @pytest.mark.parametrize(
        "c_max", [0, 4, 5, *EDGES[:3], 1_100_000]
    )
    def test_rows_are_the_triples_as_tuples(self, c_max):
        # the last bound is above 513**2, where windows are wider than the floor
        assert _WINDOW_ROOTS * math.isqrt(1_100_000) > _WINDOW_FLOOR
        pairs = zip_longest(iter_ppt_rows(c_max), iter_ppts(c_max))
        assert all(t is not None and row == (t.c, t.a, t.b) for row, t in pairs)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2 * 10**5), st.integers(0, 2 * 10**5))
    def test_a_smaller_bound_is_a_prefix(self, c1, c2):
        c1, c2 = sorted((c1, c2))
        small, large = list(iter_ppts(c1)), list(iter_ppts(c2))
        assert large[: len(small)] == small
        assert all(t.c > c1 for t in large[len(small) :])

    def test_memory_stays_one_window(self):
        """At 250,000 the list of all 39,788 triples peaks near 10.6 MB traced;
        the stream holds one window of about 5,000 (c, a, b) tuples."""
        tracemalloc.start()
        try:
            count = sum(1 for _ in iter_ppts(250_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 39_788
        assert peak < 2.5e6


def test_classify_triple():
    cls = classify_triple(Triple(15, 8, 17))
    assert cls.primitive and cls.even_leg == "b"
    assert cls.f == 7
    assert TripleClass._fields == ("primitive", "even_leg", "f")
    cls = classify_triple(Triple(6, 8, 10))
    assert not cls.primitive and cls.even_leg == "both"
