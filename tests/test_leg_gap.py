import itertools
import math
import unittest.mock

import pytest
from hypothesis import given, settings, strategies as st

from pptriples import (
    InadmissibleError,
    QuadInt,
    Triple,
    UnsupportedRangeError,
    admissible_f,
    cf_elements,
    gamma_delta_power,
    generate_f_triples,
    ideal_generator,
    iter_f_triples,
    iter_ppt_rows,
    is_prime,
)
from pptriples import checks, leg_gap, pell, triples, zsqrt2
from pptriples.checks import CheckReport, leg_gap_rows
from pptriples.cli import main
from pptriples.leg_gap import FTriple

from oracles import is_associate, iter_ppts, verify_f_triple


class TestAdmissible:
    def test_examples(self):
        spec = admissible_f(7)
        assert spec.admissible and spec.factorization == ((7, 1),)
        spec = admissible_f(12)
        assert not spec.admissible
        assert any("2 is 2 mod 8" in r for r in spec.reasons)
        assert any("3 is 3 mod 8" in r for r in spec.reasons)
        assert admissible_f(119).admissible  # 7 * 17
        assert admissible_f(1).admissible and admissible_f(1).factorization == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            admissible_f(0)

    def test_rejects_out_of_range(self):
        with pytest.raises(UnsupportedRangeError):
            admissible_f(2**64 + 1)


def generated(t, f):
    """The record of triple t in the f sweep over m = -3..3."""
    (ft,) = [ft for ft in generate_f_triples(admissible_f(f), -3, 3) if ft.triple == t]
    return ft


class TestPellRecast:
    """(X, Y) = (a + b, c) turns a triple with legs f apart into a solution
    of X*X - 2*Y*Y = -f*f; each generated record's triple gives that pair."""

    @pytest.mark.parametrize(
        "t,f,expected",
        [
            (Triple(3, 4, 5), 1, (7, 5)),
            (Triple(5, 12, 13), 7, (17, 13)),
            (Triple(8, 15, 17), 7, (23, 17)),
        ],
    )
    def test_examples(self, t, f, expected):
        ft = generated(t, f)
        a, b, c = ft.triple
        assert (a + b, c) == expected
        assert (a + b) ** 2 - 2 * c * c == -f * f
        assert verify_f_triple(ft, admissible_f(f))

    def test_rejects_wrong_gap(self):
        assert not verify_f_triple(generated(Triple(3, 4, 5), 1), admissible_f(7))


class TestCfElements:
    def test_f1(self):
        elems = cf_elements(admissible_f(1))
        assert len(elems) == 1 and elems[0].u == QuadInt(1, 0)

    def test_f7(self):
        elems = cf_elements(admissible_f(7))
        assert len(elems) == 2
        assert {e.u for e in elems} == {QuadInt(3, 1), QuadInt(3, -1)}

    def test_f49(self):
        elems = cf_elements(admissible_f(49))
        assert len(elems) == 2
        for e in elems:
            assert abs(e.u.norm) == 49
            assert is_associate(e.u, QuadInt(11, 6)) or is_associate(e.u, QuadInt(11, -6))

    def test_f119_all_products(self):
        elems = cf_elements(admissible_f(119))
        assert len(elems) == 4
        assert len({e.choices for e in elems}) == 4
        for e in elems:
            assert abs(e.u.norm) == 119

    @pytest.mark.parametrize("f", [1, 7, 49, 119, 833, 2737, 513263])
    def test_elements_are_built_once_in_choice_order(self, f):
        # each element as its own product of powers, choices in
        # `itertools.product` order: the first prime factor's pick leads
        spec = admissible_f(f)
        gens = [ideal_generator(p) for p, _ in spec.factorization]
        want = []
        for choices in itertools.product((0, 1), repeat=len(gens)):
            u = QuadInt(1, 0)
            for (_, exp), gen, pick in zip(spec.factorization, gens, choices):
                u = u * (gen if pick == 0 else gen.conjugate()) ** exp
            want.append((u, choices))
        assert cf_elements(spec) is spec.elements and list(spec.elements) == want
        for i, elem in enumerate(spec.elements):
            assert spec.elements[len(want) - 1 - i].u == elem.u.conjugate()

    def test_rejects_inadmissible(self):
        assert admissible_f(21).elements == ()
        message = r"f=21 is inadmissible: prime factor 3 is 3 mod 8, not \+/-1"
        with pytest.raises(InadmissibleError, match=f"^{message}$"):
            cf_elements(admissible_f(21))
        with pytest.raises(InadmissibleError):
            cf_elements(admissible_f(3))


class TestGenerate:
    def test_f1_spot_values(self):
        got = [ft.triple for ft in generate_f_triples(admissible_f(1), 1, 2)]
        assert sorted(got) == [(3, 4, 5), (20, 21, 29)]

    def test_f7_spot_values(self):
        fts = generate_f_triples(admissible_f(7), 0, 1)
        got = {ft.triple: ft for ft in fts}
        # the generator branch reproduces the hand-derived values ...
        assert got[(8, 15, 17)].m == 0 and got[(8, 15, 17)].cf_choice.u == QuadInt(3, 1)
        assert got[(65, 72, 97)].m == 1 and got[(65, 72, 97)].cf_choice.u == QuadInt(3, 1)
        # ... and the conjugate branch contributes one more triple
        assert got[(5, 12, 13)].m == 1 and got[(5, 12, 13)].cf_choice.u == QuadInt(3, -1)
        assert set(got) == {(5, 12, 13), (8, 15, 17), (65, 72, 97)}

    def test_rejects_inadmissible_and_empty_range(self):
        with pytest.raises(ValueError):
            generate_f_triples(admissible_f(3), 0, 1)
        with pytest.raises(ValueError):
            generate_f_triples(admissible_f(7), 2, 1)

    def test_soundness_sampled_gaps(self):
        for f in (1, 7, 17, 23, 31, 41, 49, 119):
            spec = admissible_f(f)
            fts = generate_f_triples(spec, -6, 6)
            assert fts
            for ft in fts:
                assert verify_f_triple(ft, spec)
                a, b, c = ft.triple
                assert (a + b) ** 2 - 2 * c * c == -f * f

    def test_no_duplicates(self):
        fts = generate_f_triples(admissible_f(119), -8, 8)
        keys = [ft.triple for ft in fts]
        assert len(keys) == len(set(keys))

    def test_completeness_to_1e5(self, oracle_1e5):
        gaps = (1, 7, 17)
        generated = {
            f: {ft.triple for ft in generate_f_triples(admissible_f(f), -12, 12)}
            for f in gaps
        }
        covered = 0
        for t in oracle_1e5:
            lo, hi = min(t.a, t.b), max(t.a, t.b)
            if hi - lo in generated:
                assert (lo, hi, t.c) in generated[hi - lo]
                covered += 1
        assert covered > 0

    def test_conjugate_symmetry(self):
        # Swapping the generator for its conjugate relabels branches as
        # m -> -m - 1, so over a window symmetric about -1/2 the two
        # branches produce identical triple sets.
        spec = admissible_f(7)
        u = ideal_generator(7)
        for pick in (u, u.conjugate()):
            pick_set = set()
            for m in range(-6, 6):
                w = gamma_delta_power(m) * pick * pick
                X, Y = abs(w.x), abs(w.y)
                # x*x - 2*y*y = -49 forces X odd, so both legs are integers
                assert X % 2 == 1
                if X > 7:
                    pick_set.add(((X - 7) // 2, (X + 7) // 2, Y))
            if pick is u:
                generator_set = pick_set
            else:
                assert pick_set == generator_set


class TestLegGapRows:
    """The leg-gap referee of `check_f_coverage` against the full sweep,
    filtered by leg gap."""

    # (2, 14, 34): no PPT has an even leg gap, though 2*s*s +/- f can be square
    GAP_SETS = [(1, 7, 17), (23, 41, 119), (3, 5), (1, 1, 7), (2, 14, 34)]

    @staticmethod
    def _filtered(rows, gaps):
        return [row for row in rows if abs(row[1] - row[2]) in set(gaps)]

    @pytest.mark.parametrize(
        "c_max", [0, 1, 4, 5, 29, 30, 2**16 - 1, 2**16, 2**16 + 1, 10**5, 10**6]
    )
    def test_matches_the_filtered_sweep(self, c_max):
        rows = list(iter_ppt_rows(c_max))
        for gaps in self.GAP_SETS:  # (1, 1, 7): a repeated gap counts once
            assert list(leg_gap_rows(c_max, gaps)) == self._filtered(rows, gaps)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2 * 10**5),
        st.lists(st.integers(-3, 2000), max_size=5),
    )
    def test_matches_the_filtered_sweep_anywhere(self, c_max, gaps):
        assert list(leg_gap_rows(c_max, gaps)) == self._filtered(iter_ppt_rows(c_max), gaps)

    def test_f_coverage_makes_no_full_sweep(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("full sweep called")

        monkeypatch.setattr(triples, "iter_ppt_rows", refuse)
        assert checks.check_f_coverage(10**6) == CheckReport("f-coverage", 34, 0)

    def test_f_coverage_window_holds_composite_gaps(self):
        # (33, 56, 65) and (16, 63, 65), gaps 23 and 47, share a hypotenuse,
        # so each row must be read from its own gap's stream; 84847 and
        # 513263 are above 2 * 10**4
        gaps = (1, 7, 17, 23, 47, 49, 119, 2737, 84847, 513263)
        report = checks.check_f_coverage(10**8, gaps=gaps)
        assert report.ok and report.checks > 0

    @pytest.mark.parametrize(
        "extra,counterexample",
        [
            (lambda ft: ft, "(20, 21, 29) is extra in the sweep"),
            (
                lambda ft: ft._replace(triple=Triple(12, 35, 37)),
                "(12, 35, 37) is extra in the sweep",
            ),
        ],
    )
    def test_f_coverage_fails_a_repeated_or_extra_row(self, monkeypatch, extra, counterexample):
        """A stream that yields `extra(ft)` after the f = 1 triple
        (20, 21, 29) fails at f = 1's next referee row, (119, 120, 169)."""

        def broken(spec, *span):
            for ft in stream(spec, *span):
                yield ft
                if ft.triple.c == 29:
                    yield extra(ft)

        stream = leg_gap.iter_f_triples
        monkeypatch.setattr(leg_gap, "iter_f_triples", broken)
        assert checks.check_f_coverage(20000) == CheckReport("f-coverage", 10, 1, counterexample)


def _f_coverage_within_reach(c_max, gaps):
    """`check_f_coverage` with each stream read over the exponent range
    [-R, R], R = 2*c_max + h + 3 with h the largest |x| of the GAMMA * u*u:
    each valley lies within h steps of m = 0, so R reaches every triple up
    to c_max."""
    streams = {}
    for f in dict.fromkeys(gaps):
        spec = leg_gap.admissible_f(f)
        R = 2 * c_max + 3 + max(abs((zsqrt2.GAMMA * e.u * e.u).x) for e in cf_elements(spec))
        streams[f] = (
            (c, a, b) if a % 2 else (c, b, a)
            for (a, b, c), *_ in leg_gap.iter_f_triples(spec, -R, R)
        )
    return checks._first_failure("f-coverage", checks._coverage_cases(
        leg_gap_rows(c_max, gaps), c_max,
        ((streams, lambda row: abs(row[1] - row[2]), checks._mismatch),),
    ))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**9),
    st.lists(st.sampled_from((1, 7, 17, 23, 41, 49, 119, 2737, 84847)), min_size=1, max_size=4),
    st.one_of(st.none(), st.tuples(st.sampled_from(("drop", "repeat")), st.integers(0, 12))),
)
def test_unbounded_f_coverage_equals_the_reach_bounded_suite(c_max, gaps, fault):
    """Reading each stream unbounded gives the report the reach-bounded read
    gave, on a sound stream and on one that drops or repeats a triple of
    the first gap."""
    stream = leg_gap.iter_f_triples

    def injected(spec, *span):
        for i, ft in enumerate(stream(spec, *span)):
            if fault and spec.f == gaps[0] and i == fault[1]:
                if fault[0] == "drop":
                    continue
                yield ft
            yield ft

    with unittest.mock.patch.object(leg_gap, "iter_f_triples", injected):
        assert checks.check_f_coverage(c_max, tuple(gaps)) == _f_coverage_within_reach(c_max, gaps)


def _reference_f_triples(spec, m_lo, m_hi):
    """The branch walk as first written: a fresh GAMMA * DELTA**m for every m,
    both signs of every branch, and the first branch to reach a triple wins."""
    f, elements = spec.f, cf_elements(spec)
    seen, out = set(), []
    for m in range(m_lo, m_hi + 1):
        base = gamma_delta_power(m)
        for elem in elements:
            w = base * elem.u * elem.u
            for sign in (1, -1):
                X, Y = abs(sign * w.x), abs(sign * w.y)
                if X <= f or (X - f) % 2:
                    continue
                key = ((X - f) // 2, (X + f) // 2, Y)
                if key not in seen:
                    seen.add(key)
                    out.append(FTriple(Triple(*key), m, elem))
    return out


# (5, 12) and (-40, -30) lie wholly on one side of every branch's least |x|;
# the reflection m -> -m-1 of (5, 12), (-40, -30), (4, 9) and (-9, -3) is
# disjoint from the range, of (0, 0), (0, 5) and (-3, -1) adjacent to it, and
# of (-9, 7) and (-2, 7) overlaps it
@pytest.mark.parametrize("f", [1, 7, 49, 119, 343, 2737])
@pytest.mark.parametrize(
    "m_lo,m_hi",
    [(-9, 7), (0, 0), (5, 12), (-40, -30), (4, 9), (-9, -3), (0, 5), (-3, -1), (-2, 7)],
)
def test_walk_matches_the_per_m_reference(f, m_lo, m_hi):
    spec = admissible_f(f)
    want = sorted(_reference_f_triples(spec, m_lo, m_hi), key=lambda ft: ft.triple)
    assert generate_f_triples(spec, m_lo, m_hi) == want


SPLIT_PRIMES = [p for p in range(3, 152) if p % 8 in (1, 7) and is_prime(p)]


def _draw_range(data, spec):
    """A range within +/-25 whose reflection m -> -m-1 is disjoint from it,
    adjacent or overlapping, or one wholly below or above the valley of a
    branch, found by scanning every m."""
    kind = data.draw(st.sampled_from(["disjoint", "adjacent", "overlapping", "valley"]))
    if kind == "disjoint":  # wholly above 0 or wholly below -1
        lo, hi = data.draw(st.sampled_from([(1, 25), (-25, -2)]))
    elif kind == "adjacent":  # starts at 0 or ends at -1
        end = data.draw(st.integers(0, 25))
        return data.draw(st.sampled_from([(0, end), (-end - 1, -1)]))
    elif kind == "overlapping":  # holds both -1 and 0
        return data.draw(st.integers(-25, -1)), data.draw(st.integers(0, 25))
    else:
        elem = data.draw(st.sampled_from(cf_elements(spec)))
        xs = {m: abs((gamma_delta_power(m) * elem.u * elem.u).x) for m in range(-25, 26)}
        valley = min(xs, key=lambda m: (xs[m], m))
        assert -25 < valley < 25
        lo, hi = data.draw(st.sampled_from([(-25, 25), (-25, valley - 1), (valley + 1, 25)]))
    m_lo = data.draw(st.integers(lo, hi))
    return m_lo, data.draw(st.integers(m_lo, hi))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(SPLIT_PRIMES), max_size=3), st.data())
def test_walk_matches_the_per_m_reference_for_any_gap(primes, data):
    # no primes is f = 1, whose one branch is its own conjugate twin
    spec = admissible_f(math.prod(primes))
    m_lo, m_hi = _draw_range(data, spec)
    want = sorted(_reference_f_triples(spec, m_lo, m_hi), key=lambda ft: ft.triple)
    assert generate_f_triples(spec, m_lo, m_hi) == want


def _counting_products(monkeypatch):
    """A list that grows by one entry per `QuadInt.__mul__` call."""
    calls, real = [], QuadInt.__mul__

    def counting(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(QuadInt, "__mul__", counting)
    return calls


# ring products of the walk (the elements are built by `admissible_f`, before
# the count starts) when every branch was walked over the range: f = 1 over
# +/-200 and f = 7*17*23 over +/-60
@pytest.mark.parametrize("f,span,every_branch", [(1, 200, 407), (2737, 60, 1014)])
def test_walk_takes_one_branch_per_conjugate_pair(monkeypatch, f, span, every_branch):
    spec = admissible_f(f)
    calls = _counting_products(monkeypatch)
    records = list(iter_f_triples(spec, -span, span))
    assert len(calls) <= every_branch // 2 + 8
    assert records == sorted(_reference_f_triples(spec, -span, span), key=lambda ft: ft.triple)


# (f, range, most ring products of the whole request): for 513263 that is
# 72 fewer than a request that builds its 8 elements twice; f = 1 has the
# one element 1
@pytest.mark.parametrize(
    "f,m,most", [(513263, "-400..400", 3348), (1, "-1496..1496", 1504), (2737, "-5..5", None)]
)
def test_a_gen_f_request_builds_its_elements_once(monkeypatch, capsys, f, m, most):
    calls = _counting_products(monkeypatch)
    spec = admissible_f(f)
    build = len(calls)
    assert cf_elements(spec) is spec.elements and len(calls) == build
    list(iter_f_triples(spec, *map(int, m.split(".."))))
    walk = len(calls) - build
    del calls[:]
    assert main(["gen-f", "--f", str(f), "--m", m]) == 0
    assert len(calls) == build + walk
    assert most is None or len(calls) <= most
    assert capsys.readouterr().out.count("\n") > 2


class TestRecordCheck:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(SPLIT_PRIMES), max_size=3), st.data())
    def test_every_record_passes_the_triple_check(self, primes, data):
        spec = admissible_f(math.prod(primes))
        m_lo, m_hi = _draw_range(data, spec)
        for ft in iter_f_triples(spec, m_lo, m_hi):
            a, b, c = ft.triple
            assert type(ft) is FTriple and type(ft.triple) is Triple
            assert Triple(a, b, c) == ft.triple
            assert b - a == spec.f

    def test_a_non_unit_step_raises_before_its_record(self, monkeypatch):
        # 3 + sqrt(2) has norm 7: a step up a run from its valley leaves
        # x*x - 2*y*y = -f*f, and that record must not come out; the valley
        # record of f = 119 over -3..3 comes first and is sound
        monkeypatch.setattr(leg_gap, "DELTA", QuadInt(3, 1))
        out = []
        with pytest.raises(ValueError, match=r"^not a Pythagorean triple: \(160, 279, 382\)$"):
            for ft in iter_f_triples(admissible_f(119), -3, 3):
                out.append(ft)
        assert [ft.triple for ft in out] == [(24, 143, 145)]

    def test_a_key_of_the_wrong_parity_raises(self):
        # X = 8, Y = 5 fails X*X + 1 == 2*Y*Y, yet the floored legs (3, 4)
        # and c = 5 would pass the constructor
        elements = cf_elements(admissible_f(1))
        with pytest.raises(ValueError, match="differ in parity"):
            next(leg_gap._records(1, elements, iter([(8, 0, 0, 5)])))


class TestStreaming:
    def test_wide_span_is_lazy(self, monkeypatch):
        powers = []

        def recording(m):
            powers.append(m)
            return gamma_delta_power(m)

        def recording_pow(self, n):
            powers.append(n)
            return real_pow(self, n)

        real_pow = QuadInt.__pow__
        monkeypatch.setattr(pell, "gamma_delta_power", recording)
        monkeypatch.setattr(QuadInt, "__pow__", recording_pow)
        triples = iter_f_triples(admissible_f(119), -(10**6), 10**6)
        got = [ft.triple for ft in itertools.islice(triples, 3)]
        assert got == [(24, 143, 145), (57, 176, 185), (180, 299, 349)]
        # the runs start at each branch's least |x|, near m = 0, not at the
        # ends, so no power beyond 8 is taken, by gamma_delta_power or any other
        assert all(abs(m) <= 8 for m in powers)

    def test_refusals_come_at_the_call(self):
        with pytest.raises(InadmissibleError):
            iter_f_triples(admissible_f(3), 0, 1)
        with pytest.raises(ValueError, match="empty exponent range"):
            iter_f_triples(admissible_f(7), 2, 1)

    @pytest.mark.parametrize("f", [1, 7, 119, 84847, 100000000943])
    def test_valley_is_the_least_x(self, f):
        # the branch's valley, clamped to a range as `iter_f_triples` clamps
        # it, is the least m of least |x| in that range
        for elem in cf_elements(admissible_f(f)):
            square = elem.u * elem.u
            valley, w = zsqrt2._orbit_low(zsqrt2.GAMMA * square)
            assert w == gamma_delta_power(valley) * square
            for m_lo, m_hi in ((-30, 30), (-30, -20), (4, 9), (0, 0), (-1, 0), (-2, 1)):
                xs = {m: abs((gamma_delta_power(m) * square).x) for m in range(m_lo, m_hi + 1)}
                least = min(xs.values())
                assert min(max(valley, m_lo), m_hi) == min(m for m in xs if xs[m] == least)


def test_gen_f_scans_for_each_prime_once(monkeypatch, capsys):
    scanned = []

    def counting(p):
        scanned.append(p)
        return ideal_generator(p)

    monkeypatch.setattr(zsqrt2, "ideal_generator", counting)
    assert main(["gen-f", "--f", "119", "--m", "-2..2"]) == 0
    assert capsys.readouterr().out
    assert scanned == [7, 17]


def test_nonexistence_of_inadmissible_gaps():
    bad = {3, 5, 11, 13, 21}
    for t in iter_ppts(10**6):
        assert abs(t.a - t.b) not in bad


def test_verify_rejects_hand_built_composite():
    # a scaled triple shares the gap but fails the primitivity recheck
    spec = admissible_f(7)
    t = Triple(21, 28, 35)
    assert FTriple._fields == ("triple", "m", "cf_choice")
    ft = FTriple(t, 0, cf_elements(spec)[0])
    assert not verify_f_triple(ft, spec)


def test_sufficiency_survey_reports_only():
    """The necessary condition is not claimed sufficient; survey and report."""
    found, missing = [], []
    for f in range(1, 60, 2):
        spec = admissible_f(f)
        if not spec.admissible:
            continue
        hits = generate_f_triples(spec, -8, 8)
        (found if hits else missing).append(f)
    print(f"admissible leg gaps below 60 with triples in |m| <= 8: {found}")
    print(f"admissible leg gaps below 60 without triples in that window: {missing}")
