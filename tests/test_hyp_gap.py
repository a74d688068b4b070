import collections
import heapq
import itertools
import math
import operator
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pptriples import (
    GKind,
    InadmissibleError,
    Triple,
    classify_g,
    enumerate_ppts,
    family_member,
    generate_g_family,
    invert_to_family,
    is_primitive,
    iter_g_family,
)
from pptriples import cli, hyp_gap, triples
from pptriples.checks import (
    HYP_GAP_SAMPLE,
    LEG_GAP_SAMPLE,
    CheckReport,
    check_g_coverage,
    check_nonexistence,
)

from oracles import from_params, iter_ppts, leg_from_gap


class TestClassify:
    def test_examples(self):
        gc = classify_g(9)
        assert gc.kind is GKind.ODD_SQUARE and gc.m == 3
        gc = classify_g(8)
        assert gc.kind is GKind.TWICE_SQUARE_EVEN and gc.m == 2
        gc = classify_g(2)
        assert gc.kind is GKind.TWICE_SQUARE_ODD and gc.m == 1
        gc = classify_g(1)
        assert gc.kind is GKind.ODD_SQUARE and gc.m == 1

    def test_inadmissible_records_reasons(self):
        gc = classify_g(3)
        assert gc == (3, GKind.INADMISSIBLE, None) and not gc.admissible
        message = "g=3 is inadmissible: not an odd square; not twice a square"
        with pytest.raises(InadmissibleError, match=f"^{message}$"):
            family_member(gc, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify_g(0)

    def test_three_no_triples_at_desk_scale(self):
        assert all(t.c - t.b != 3 for t in enumerate_ppts(10_000))

    def test_classes_partition_small_gaps(self):
        admissible = {g for g in range(1, 100) if classify_g(g).admissible}
        odd_squares = {m * m for m in range(1, 10, 2)}
        twice_squares = {2 * m * m for m in range(1, 8)}
        assert admissible == {g for g in odd_squares | twice_squares if g < 100}


class TestLegFromGap:
    def test_examples(self):
        assert leg_from_gap(15, 9) == 8
        assert leg_from_gap(3, 1) == 4
        assert leg_from_gap(4, 9) is None

    def test_yields_pythagorean_triple(self):
        for a in range(1, 200):
            for g in (1, 2, 8, 9):
                b = leg_from_gap(a, g)
                if b is not None:
                    assert a * a + b * b == (b + g) ** 2


class TestFamilyParams:
    def test_examples(self):
        gc9 = classify_g(9)
        # (n, k, r, s, a, b, c, stride, offset)
        assert family_member(gc9, 2) == (2, 5, 4, 1, 15, 8, 17, 6, 3)
        assert family_member(gc9, 1) is None  # gcd(3, 3) > 1
        gc2 = classify_g(2)
        assert family_member(gc2, 2) == (2, 2, 2, 1, 4, 3, 5, 2, 0)
        assert family_member(gc2, 1) is None  # equal parity with the root

    def test_rejects_inadmissible(self):
        message = "g=3 is inadmissible: not an odd square; not twice a square"
        with pytest.raises(InadmissibleError, match=f"^{message}$"):
            family_member(classify_g(3), 1)

    def test_pairs_are_coprime(self):
        for g in (1, 2, 8, 9, 25, 18):
            gc = classify_g(g)
            for n in range(1, 60):
                item = family_member(gc, n)
                if item is not None:
                    from math import gcd

                    assert gcd(item.r, item.s) == 1

    @pytest.mark.parametrize(
        "g,lo",
        [(1, 1), (2, 1), (8, 1), (9, 1), (18, 1), (25, 1), (2 * (10**8 + 1) ** 2, 100000002 - 30)],
    )
    def test_is_the_streamed_item(self, g, lo):
        """At each of 60 indices from lo, the item the stream yields there,
        or None where the stream skips the index."""
        gc, hi = classify_g(g), lo + 59
        stream = itertools.takewhile(lambda it: it.n <= hi, iter_g_family(g, hi))
        streamed = {it.n: it for it in stream}
        assert streamed
        for n in range(lo, hi + 1):
            item = family_member(gc, n)
            assert item == streamed.get(n), n
            assert item is None or type(item) is hyp_gap.GFamilyItem

    def test_refuses_the_gap_before_the_index(self):
        with pytest.raises(InadmissibleError):
            family_member(classify_g(3), 0)
        with pytest.raises(ValueError, match="^family index starts at 1, got 0$"):
            family_member(classify_g(9), 0)


class TestGenerate:
    def test_examples(self):
        assert [it.triple for it in generate_g_family(9, 2)] == [(15, 8, 17), (21, 20, 29)]
        assert generate_g_family(2, 1)[0].triple == (4, 3, 5)
        assert generate_g_family(8, 1)[0].triple == (12, 5, 13)

    def test_rejects_inadmissible(self):
        message = "g=3 is inadmissible: not an odd square; not twice a square"
        with pytest.raises(InadmissibleError, match=f"^{message}$"):
            generate_g_family(3, 1)

    def test_soundness_small(self):
        for g in range(1, 51):
            gc = classify_g(g)
            if not gc.admissible:
                continue
            items = generate_g_family(g, 10)
            for it in items:
                t = it.triple
                assert is_primitive(t)
                assert t.c - t.b == g
                assert it.triple.a == it.stride * it.n + it.offset

    def test_first_legs_strictly_increase(self):
        for g in (1, 2, 8, 9, 50, 49):
            legs = [it.triple.a for it in generate_g_family(g, 30)]
            assert legs == sorted(set(legs))

    def test_leg_from_gap_consistency(self):
        for g in (1, 2, 8, 9, 18, 25):
            for it in generate_g_family(g, 25):
                assert leg_from_gap(it.triple.a, g) == it.triple.b


def traced_peak_mb(run):
    """The peak traced allocation of run(), in MB, counted from its start."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestStreaming:
    def test_any_count_is_lazy(self):
        items = iter_g_family(9, 10**18)
        assert [it.n for it in itertools.islice(items, 3)] == [2, 3, 5]  # n = 4 has 3 | k

    def test_a_count_above_maxsize_streams(self):
        # islice refuses a stop above sys.maxsize; no run reads that many
        assert list(itertools.islice(iter_g_family(9, 10**30), 3)) == generate_g_family(9, 3)
        assert list(itertools.islice(iter_g_family(8, sys.maxsize + 1), 4)) == generate_g_family(8, 4)

    def test_refusals_come_at_the_call(self):
        with pytest.raises(InadmissibleError):
            iter_g_family(3, 10**18)
        with pytest.raises(ValueError, match="count must be positive"):
            iter_g_family(9, 0)

    def test_memory_stays_flat(self):
        stream = traced_peak_mb(lambda: collections.deque(iter_g_family(9, 10**5), maxlen=0))
        listed = traced_peak_mb(lambda: generate_g_family(9, 10**4))
        assert stream < 0.1 and listed > 1.0


class TestFirstIndex:
    """Generation starts at the closed-form first index, whatever the root."""

    @pytest.mark.parametrize(
        "g,ns",
        [
            ((10**8 + 1) ** 2, [50000001, 50000002]),  # odd square
            (2 * (10**8 + 1) ** 2, [100000002, 100000004]),  # twice square, odd root
            (2 * (10**8) ** 2, [50000000, 50000001]),  # twice square, even root
        ],
    )
    def test_big_root_is_immediate(self, g, ns):
        start = time.perf_counter()
        items = generate_g_family(g, 2)
        assert time.perf_counter() - start < 1.0
        assert [it.n for it in items] == ns
        gc = classify_g(g)
        for it in items:
            assert it == family_member(gc, it.n)
            assert it.triple.c - it.triple.b == g and is_primitive(it.triple)

    def test_first_items_match_the_oracle(self):
        """For every admissible g <= 200 the first 10 items are, in order, the
        oracle's triples with c - b = g, read in the family's leg order."""
        by_gap = {}
        for t in iter_ppts(10**6):
            for ordered in (t, Triple(t.b, t.a, t.c)):
                if ordered.c - ordered.b <= 200:
                    by_gap.setdefault(ordered.c - ordered.b, []).append(ordered)
        for g in range(1, 201):
            if not classify_g(g).admissible:
                continue
            items = generate_g_family(g, 10)
            # the hypotenuse grows with the first leg, so the oracle bound
            # holds every member up to the tenth
            assert items[-1].triple.c <= 10**6
            expected = sorted(by_gap[g], key=lambda t: t.a)[:10]
            assert [it.triple for it in items] == expected


def every_index_walk(g, count):
    """The referee of `iter_g_family`, built from the module docstring's table
    alone, with `math.gcd` and `oracles.from_params`: the first `count`
    members found by trying every index from the first with s > 0, the
    wrong-parity ones included.  A coprime pair of opposite parity states
    every row's side conditions."""
    m = math.isqrt(g if g % 2 else g // 2)
    if g % 2:  # odd square: r = (2n+1+m)/2, s = (2n+1-m)/2
        first, stride, offset = (m + 1) // 2, 2 * m, m
        row = lambda n: (2 * n + 1, (2 * n + 1 + m) // 2, (2 * n + 1 - m) // 2)
    elif m % 2:  # 2*m*m, m odd: r = n, s = m
        first, stride, offset = m + 1, 2 * m, 0
        row = lambda n: (n, n, m)
    else:  # 2*m*m, m even: r = 2n+1, s = m
        first, stride, offset = m // 2, 4 * m, 2 * m
        row = lambda n: (2 * n + 1, 2 * n + 1, m)
    items = []
    for n in itertools.count(first):
        if len(items) == count:
            return items
        k, r, s = row(n)
        if math.gcd(r, s) == 1 and (r - s) % 2:
            t = from_params(triples.ParamPair(r, s))
            a, b, c = t if g % 2 else (t.b, t.a, t.c)  # even gaps: even leg first
            assert c - b == g and a == stride * n + offset
            items.append((n, k, r, s, a, b, c, stride, offset))


def per_index_walk(gc):
    """A copy of the walk `iter_g_family` made before it built members in
    blocks: from the closed-form first index, one row per index, with the
    row's own tests on k and the validating constructors on each member."""
    leg, step, start = hyp_gap._ROWS[gc.kind]
    m = gc.m
    for n in itertools.count((m - start) // step + 1, 2 if leg == 2 and step % 2 else 1):
        k = step * n + start
        if (leg == 2 and (k - m) % 2 == 0) or k <= m or math.gcd(k, m) != 1:
            continue
        kk, mm = k * k, m * m
        if leg == 1:
            r, s, a, b, c = (k + m) // 2, (k - m) // 2, m * k, (kk - mm) // 2, (kk + mm) // 2
        else:
            r, s, a, b, c = k, m, 2 * k * m, kk - mm, kk + mm
        triples.ParamPair(r, s), Triple(a, b, c)
        yield hyp_gap.GFamilyItem(n, k, r, s, a, b, c, leg * m * step, leg * m * start)


# roots of every size and shape: small, rich in small primes (where many k
# are refused), and of 2**64 or more, some of those rich in small primes too
ROOTS = (
    st.integers(1, 10**6)
    | st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=12).map(math.prod)
    | st.integers(2**64, 2**80)
    | st.builds(operator.mul, st.sampled_from([15015, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23]),
                st.integers(2**64, 2**70))
)
# counts that end inside the first blocks of 64 indices and at their edges
BLOCK_COUNTS = st.sampled_from([63, 64, 65, 128, 129]) | st.integers(1, 300)


def gaps_of_root(m):
    """The admissible gaps with root m: m*m and 2*m*m for odd m, 2*m*m for even m."""
    return (m * m, 2 * m * m) if m % 2 else (2 * m * m,)


class TestWalk:
    """The walk steps over wrong-parity indices and still yields, in order,
    the members a walk over every index finds."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 9, 15, 105, 113, 210])
    def test_matches_every_index_walk(self, m):
        for g in gaps_of_root(m):
            want = every_index_walk(g, 200)
            for count in range(1, 201):
                assert generate_g_family(g, count) == want[:count], (g, count)

    @pytest.mark.parametrize("g", [1000003**2, 2 * 1000003**2, 2 * (10**6) ** 2])
    def test_matches_every_index_walk_near_a_million(self, g):
        assert generate_g_family(g, 200) == every_index_walk(g, 200)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10**6), st.booleans(), st.integers(1, 80))
    def test_matches_every_index_walk_for_any_admissible_gap(self, m, twice, count):
        g = 2 * m * m if twice or m % 2 == 0 else m * m
        assert generate_g_family(g, count) == every_index_walk(g, count)

    @settings(max_examples=150, deadline=None)
    @given(ROOTS, st.booleans(), BLOCK_COUNTS)
    def test_blocks_equal_the_per_index_walk(self, m, twice, count):
        """The block walk yields the members of one row per index, and
        `family_member` gives the streamed member at each index from just
        below the first to the last, and None at every index in between."""
        g = 2 * m * m if twice or m % 2 == 0 else m * m
        gc = classify_g(g)
        items = list(iter_g_family(g, count))
        assert items == list(itertools.islice(per_index_walk(gc), count))
        streamed = {it.n: it for it in items}
        for n in range(max(1, items[0].n - 4), items[-1].n + 1):
            assert family_member(gc, n) == streamed.get(n)

    @pytest.mark.parametrize("m", [1, 3, 9, 113, 2, 210])
    def test_tries_only_parity_valid_multipliers(self, monkeypatch, m):
        """Every multiplier handed to `_rows` has the parity of a member, and
        the members are the rows it built, in order."""
        tried, built = [], []
        rows = hyp_gap._rows

        def counting_rows(gc, ns):
            leg, step, start = hyp_gap._ROWS[gc.kind]
            tried.extend((leg, step * n + start - gc.m) for n in ns)
            block = rows(gc, ns)
            built.extend(block)
            return block

        monkeypatch.setattr(hyp_gap, "_rows", counting_rows)
        for g in gaps_of_root(m):
            tried.clear()
            built.clear()
            items = generate_g_family(g, 50)
            assert all(leg == 1 or gap % 2 for leg, gap in tried)
            assert items == built[:50]

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([GKind.ODD_SQUARE, GKind.TWICE_SQUARE_ODD, GKind.TWICE_SQUARE_EVEN]),
        st.integers(0, 5 * 10**5),
        st.integers(1, 300),
    )
    def test_every_member_passes_the_constructors(self, kind, j, count):
        """Members are built unchecked from `_row`'s plain ints, so each must
        pass the validating constructors it skipped."""
        m = 2 * j + 2 if kind is GKind.TWICE_SQUARE_EVEN else 2 * j + 1
        g = m * m if kind is GKind.ODD_SQUARE else 2 * m * m
        assert classify_g(g).kind is kind
        items = generate_g_family(g, count)
        assert len(items) == count
        for it in items:
            assert type(it) is hyp_gap.GFamilyItem
            assert triples.ParamPair(it.r, it.s) == (it.r, it.s)
            assert Triple(it.a, it.b, it.c) == it.triple and it.c - it.b == g

    @pytest.mark.parametrize("g", [1, 9, 225])
    def test_a_row_that_fails_a_check_raises(self, monkeypatch, g):
        """An even multiplier in the odd-square row (start 0) gives rows that
        fail `_rows`'s checks: the walk raises before it yields a member."""
        monkeypatch.setitem(hyp_gap._ROWS, GKind.ODD_SQUARE, (1, 2, 0))
        with pytest.raises(ValueError, match="need 0 < s < r"):
            hyp_gap._rows(classify_g(9), range(2, 3))  # m = 3, k = 4
        with pytest.raises(ValueError, match="not a Pythagorean triple"):
            hyp_gap._rows(classify_g(9), range(4, 5))  # m = 3, k = 8
        got = []
        with pytest.raises(ValueError):
            for it in iter_g_family(g, 5):
                got.append(it)
        assert got == []


class TestInvert:
    def test_examples(self):
        gc, n = invert_to_family(Triple(15, 8, 17))
        assert (gc.kind, gc.m, n) == (GKind.ODD_SQUARE, 3, 2)
        gc, n = invert_to_family(Triple(3, 4, 5))
        assert (gc.kind, gc.m, n) == (GKind.ODD_SQUARE, 1, 1)
        gc, n = invert_to_family(Triple(4, 3, 5))
        assert (gc.kind, gc.m, n) == (GKind.TWICE_SQUARE_ODD, 1, 2)

    def test_rejects_non_primitive(self):
        with pytest.raises(ValueError):
            invert_to_family(Triple(6, 8, 10))

    def test_completeness_to_1e4(self):
        """Both leg orders of every oracle triple invert and regenerate."""
        for t in enumerate_ppts(10_000):
            for ordered in (t, Triple(t.b, t.a, t.c)):
                gc, n = invert_to_family(ordered)
                expected_kind = (
                    GKind.ODD_SQUARE
                    if (ordered.c - ordered.b) % 2
                    else (
                        GKind.TWICE_SQUARE_ODD
                        if gc.m % 2
                        else GKind.TWICE_SQUARE_EVEN
                    )
                )
                assert gc.kind is expected_kind
                assert family_member(gc, n).triple == ordered

    def test_class_matches_the_square_root_route(self):
        """The class read off the pair is `classify_g(c - b)`, for both leg
        orders of every triple with c <= 10^4 and of one whose c has 80,001
        digits (where both gaps are large)."""
        r, s = 10**40000, 10**39999 + 1
        big = Triple(r * r - s * s, 2 * r * s, r * r + s * s)
        assert 10**80000 <= big.c < 10**80001
        for t in [*enumerate_ppts(10_000), big]:
            for ordered in (t, Triple(t.b, t.a, t.c)):
                gc, _ = invert_to_family(ordered)
                assert gc == classify_g(ordered.c - ordered.b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**40 // 2), st.integers(0, 10**40 // 4), st.booleans())
    def test_round_trip_to_1e40(self, s, j, swap):
        """A coprime, opposite-parity pair's triple, in either leg order,
        inverts to coordinates that regenerate it, at the sizes of the
        `check` goldens and beyond."""
        r = s + 2 * j + 1
        assume(math.gcd(r, s) == 1)
        a, b, c = r * r - s * s, 2 * r * s, r * r + s * s
        t = Triple(b, a, c) if swap else Triple(a, b, c)
        assert family_member(*invert_to_family(t)).triple == t

    def test_reads_the_pair_alone(self, monkeypatch):
        """Inversion neither tests primitivity again nor regenerates the triple."""

        def refuse(*args):
            raise AssertionError("called")

        sample = [Triple(15, 8, 17), Triple(4, 3, 5), Triple(12, 5, 13)]
        want = [invert_to_family(t) for t in sample]
        monkeypatch.setattr(triples, "is_primitive", refuse)
        for name in ("family_member", "_rows"):
            monkeypatch.setattr(hyp_gap, name, refuse)
        assert [invert_to_family(t) for t in sample] == want
        assert [n for _, n in want] == [2, 2, 1]

    def test_check_reads_r_and_s_off_the_triple(self, monkeypatch):
        """The parameter pair is unique, so the member at the inverted
        coordinates has the triple's own pair, and `check` does not
        regenerate it."""
        for t in iter_ppts(3000):
            for ordered in (t, Triple(t.b, t.a, t.c)):
                item = family_member(*invert_to_family(ordered))
                assert (item.r, item.s) == triples.to_params(ordered)
        want = cli._check_record(15, 8, 17)

        def refuse(*args):
            raise AssertionError("called")

        for name in ("family_member", "_rows"):
            monkeypatch.setattr(hyp_gap, name, refuse)
        assert cli._check_record(15, 8, 17) == want and want[0]["r"] == 4

    @pytest.mark.parametrize("abc,code", [((15, 8, 17), 0), ((8, 15, 17), 0), ((6, 8, 10), 4)])
    def test_check_tests_primitivity_once(self, monkeypatch, abc, code):
        calls = []
        original = triples.is_primitive

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(triples, "is_primitive", counting)
        if hasattr(hyp_gap, "is_primitive"):
            monkeypatch.setattr(hyp_gap, "is_primitive", counting)
        assert cli._check_record(*abc)[1] == code
        assert calls == [abc]


def edited_stream(monkeypatch, g, edit):
    """Pass the g family's stream, as `check_g_coverage` reads it, through edit."""
    original = hyp_gap.iter_g_family

    def stream(gap, count):
        members = original(gap, count)
        return edit(members) if gap == g else members

    monkeypatch.setattr(hyp_gap, "iter_g_family", stream)


def repeat_at(c):
    return lambda members: (x for item in members for x in [item] * (1 + (item.c == c)))


def with_fault(members, i, edit):
    """members with member i replaced by what edit(member, the rest) yields."""
    members = iter(members)
    yield from itertools.islice(members, i)
    for x in members:
        yield from edit(x, members)
        break
    yield from members


def g_coverage_by_rows(c_max):
    """`check_g_coverage` as one case per referee row and gap kind: each row
    (c, odd, even) against the next member of its odd-square gap's stream,
    then of its twice-square gap's, then each stream's next member."""
    bound, n = max(c_max, 0), 0
    kinds = (("odd-square", range(1, math.isqrt(bound) + 1, 2), 1, ("c", "a", "b")),
             ("twice-square", range(1, math.isqrt(bound // 2) + 1), 2, ("c", "b", "a")))
    streams = [{lead * m * m: map(operator.attrgetter(*order),
                                  hyp_gap.iter_g_family(lead * m * m, sys.maxsize + 1))
                for m in ms} for _, ms, lead, order in kinds]

    def failure(kind, want, got):
        c, odd, even = row = min(x for x in (want, got) if x)
        a, b = (odd, even) if kind == "odd-square" else (even, odd)
        how = f"is extra in the {kind} streams"
        if row == want:
            how = f"missing from the g={c - b} family"
        return CheckReport("g-coverage", n, 1, f"({a}, {b}, {c}) {how}")

    for row in triples.iter_ppt_rows(c_max):
        for (kind, *_), gap, by_gap in zip(kinds, (row[0] - row[2], row[0] - row[1]), streams):
            n += 1
            if (got := next(by_gap[gap], None)) != row:
                return failure(kind, row, got)
    for (kind, *_), by_gap in zip(kinds, streams):
        for stream in by_gap.values():
            if (got := next(stream, None)) is not None and got[0] <= c_max:
                n += 1
                return failure(kind, None, got)
    return CheckReport("g-coverage", n, 0)


class TestGCoverage:
    @pytest.mark.parametrize(
        "c_max,checks",
        [(-1, 0), (4, 0), (5, 2), (4095, 1304), (4096, 1304), (4097, 1308),
         (65536, 20856), (65537, 20858), (131072, 41736)],
    )
    def test_two_checks_per_row_across_window_edges(self, c_max, checks):
        """Rows at c = 4097 and 65537 lie one past a bound, and the
        referee's windows (2**15 wide below 513**2) have edges among these
        bounds.  A pass reads no window: the edges matter only to the
        referee's count of rows here and to the suite's failure path."""
        assert checks == 2 * len(list(triples.iter_ppt_rows(c_max)))
        assert check_g_coverage(c_max) == ("g-coverage", checks, 0, None)

    @pytest.mark.parametrize(
        "g,edit,want",
        [
            # (15, 8, 17) twice, found at g = 9's next row, (21, 20, 29)
            (9, repeat_at(17), (9, "(15, 8, 17) is extra in the odd-square streams")),
            # (12, 5, 13) twice, found at g = 8's next row, (20, 21, 29)
            (8, repeat_at(13), (10, "(12, 5, 13) is extra in the twice-square streams")),
            # k = 9 shares the root 3: a walk that tried it would yield (27, 36, 45),
            # found at g = 9's next row, (33, 56, 65)
            (
                9,
                lambda members: heapq.merge(
                    members, [hyp_gap.GFamilyItem(4, 9, 6, 3, 27, 36, 45, 6, 3)], key=lambda x: x.c
                ),
                (19, "(27, 36, 45) is extra in the odd-square streams"),
            ),
            # the walk of 2*m*m, m odd, starting one step late
            (2, lambda members: itertools.islice(members, 1, None),
             (2, "(4, 3, 5) missing from the g=2 family")),
            # the first two members swapped: a sort of the members would hide it
            (
                9,
                lambda members: itertools.chain(
                    reversed(list(itertools.islice(members, 2))), members
                ),
                (5, "(15, 8, 17) missing from the g=9 family"),
            ),
            # a stream that ends after two members fails at g = 9's third row
            (9, lambda members: itertools.islice(members, 2),
             (19, "(33, 56, 65) missing from the g=9 family")),
            # g = 9's last member below the bound twice, found after the last row
            (9, repeat_at(1865), (639, "(183, 1856, 1865) is extra in the odd-square streams")),
        ],
        ids=[
            "repeated-odd-square", "repeated-twice-square", "extra", "late-start",
            "misordered", "ended", "repeated-last",
        ],
    )
    def test_a_stream_fault_fails_at_its_row(self, monkeypatch, g, edit, want):
        edited_stream(monkeypatch, g, edit)
        report = check_g_coverage(2000)
        assert (report.checks, report.counterexample) == want and report.failures == 1

    @settings(max_examples=80, deadline=None)
    @given(
        c_max=st.integers(-1, 5000),
        g=st.sampled_from([1, 2, 8, 9, 18, 25, 49, 50]),
        other=st.sampled_from([1, 2, 9, 18]),
        i=st.integers(0, 12),
        fault=st.sampled_from(
            ["drop", "repeat", "swap", "insert", "replace", "a+2", "-a", "b+2", "below", "b<0"]
        ),
    )
    @example(c_max=100, g=9, other=1, i=2, fault="below")  # (27, 36, 45) for (33, 56, 65)
    @example(c_max=100, g=9, other=1, i=0, fault="b<0")
    @example(c_max=100, g=9, other=2, i=2, fault="replace")  # (12, 35, 37) for (33, 56, 65)
    def test_equals_the_row_by_row_dispatch(self, c_max, g, other, i, fault):
        """Faults in one gap's stream: a member dropped, repeated, swapped with
        the next, preceded or replaced by a member of another gap, or with a
        leg changed, or replaced by the nearest Pythagorean triple below it
        with c - b = g (the member before it, or a multiple such as
        (27, 36, 45) at g = 9), or by a primitive one with b < 0 (below the
        first member, whose c exceeds g)."""
        below = {8: (4, -3, 5), 9: (3, -4, 5), 18: (12, -5, 13), 25: (15, -8, 17),
                 49: (35, -12, 37), 50: (20, -21, 29)}
        assume(other != g and (fault != "b<0" or g in below))
        extra = next(itertools.islice(iter_g_family(other, i + 1), i, None))
        legs = {"a+2": lambda x: x._replace(a=x.a + 2), "-a": lambda x: x._replace(a=-x.a),
                "b+2": lambda x: x._replace(b=x.b + 2),
                "b<0": lambda x: x._replace(**dict(zip("abc", below[g]))),
                "below": lambda x: next(
                    (x._replace(a=a, b=b, c=b + g)
                     for a in range(x.a - 1, 0, -1) if (b := leg_from_gap(a, g))), x)}
        edit = {
            "drop": lambda x, rest: [],
            "repeat": lambda x, rest: [x, x],
            "swap": lambda x, rest: [*itertools.islice(rest, 1), x],
            "insert": lambda x, rest: [extra, x],
            "replace": lambda x, rest: [extra],
        }.get(fault, lambda x, rest: [legs[fault](x)])
        with pytest.MonkeyPatch.context() as mp:
            edited_stream(mp, g, lambda members: with_fault(members, i, edit))
            assert check_g_coverage(c_max) == g_coverage_by_rows(c_max)

    def test_memory_is_constant(self):
        tracemalloc.start()
        try:
            report = check_g_coverage(10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == CheckReport("g-coverage", 31838, 0)
        assert peak < 64 * 1024

    def test_a_fault_past_the_first_window_counts_every_row_before_it(self, monkeypatch):
        # (2175, 3472, 4097) is the first row past c = 4096, where 1304 checks pass
        edited_stream(monkeypatch, 625, lambda ms: (m for m in ms if m.c != 4097))
        report = check_g_coverage(10_000)
        assert report == (
            "g-coverage", 1304 + 1, 1, "(2175, 3472, 4097) missing from the g=625 family"
        )


def test_nonexistence_of_inadmissible_gaps():
    inadmissible = {g for g in range(1, 51) if not classify_g(g).admissible}
    seen_gaps = set()
    for t in iter_ppts(10**6):
        seen_gaps.add(t.c - t.a)
        seen_gaps.add(t.c - t.b)
    assert not seen_gaps & inadmissible


def nonexistence_by_rows(c_max, hyp_gaps, leg_gaps):
    """`check_nonexistence` as one case per row of `iter_ppt_rows`."""
    hyp, leg = set(hyp_gaps), set(leg_gaps)
    n = 0
    for n, (c, a, b) in enumerate(triples.iter_ppt_rows(c_max), 1):
        for gap in (c - a, c - b):
            if gap in hyp:
                return CheckReport("nonexistence", n, 1, f"({a}, {b}, {c}) has hypotenuse gap {gap}")
        if abs(a - b) in leg:
            return CheckReport("nonexistence", n, 1, f"({a}, {b}, {c}) has leg gap {abs(a - b)}")
    return CheckReport("nonexistence", n, 0)


class TestNonexistence:
    BOUNDS = (-1, 0, 4, 5, 12, 13, 16, 17, 25, 26, 65, 66, 85, 4097, 20000)

    @pytest.mark.parametrize("c_max", BOUNDS)
    def test_equals_the_row_by_row_check(self, c_max):
        rng = random.Random(c_max)
        gap_sets = [(HYP_GAP_SAMPLE, LEG_GAP_SAMPLE), ((), ())] + [
            (tuple(rng.sample(range(1, 61), rng.randrange(4))),
             tuple(rng.sample(range(1, 61), rng.randrange(4))))
            for _ in range(12)
        ]
        for hyp_gaps, leg_gaps in gap_sets:
            assert check_nonexistence(c_max, hyp_gaps, leg_gaps) == nonexistence_by_rows(
                c_max, hyp_gaps, leg_gaps
            ), (hyp_gaps, leg_gaps)

    @pytest.mark.parametrize("hyp_gaps, leg_gaps, want", [
        # (3, 4, 5) has c - a = 2, c - b = 1 and leg gap 1: c - a is tried first,
        ((1, 2), (1,), (1, "(3, 4, 5) has hypotenuse gap 2")),
        # then c - b,
        ((1,), (1,), (1, "(3, 4, 5) has hypotenuse gap 1")),
        # then the leg gap
        ((), (1,), (1, "(3, 4, 5) has leg gap 1")),
        # (5, 12, 13) has leg gap 7 and comes before (15, 8, 17) with c - b = 9
        ((9,), (7,), (2, "(5, 12, 13) has leg gap 7")),
        # c = 85 has two rows, (13, 84, 85) (r = 7) and (77, 36, 85) (r = 9)
        ((), (71, 41), (13, "(13, 84, 85) has leg gap 71")),
        ((), (41,), (14, "(77, 36, 85) has leg gap 41")),
        # r = 7 visits (13, 84, 85) before r = 8 visits (63, 16, 65)
        ((72, 49), (), (11, "(63, 16, 65) has hypotenuse gap 49")),
    ])
    def test_reports_the_least_failing_row(self, hyp_gaps, leg_gaps, want):
        report = check_nonexistence(100, hyp_gaps, leg_gaps)
        assert (report.checks, report.counterexample) == want and report.failures == 1
        assert report == nonexistence_by_rows(100, hyp_gaps, leg_gaps)

    def test_memory_is_constant(self):
        tracemalloc.start()
        try:
            report = check_nonexistence(10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == CheckReport("nonexistence", 15919, 0)
        assert peak < 64 * 1024
