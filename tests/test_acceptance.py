"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings on stdout.
"""

import math
import random
import time
from contextlib import contextmanager

from pptriples import (
    DELTA,
    QuadInt,
    TotientSums,
    admissible_f,
    classify_g,
    count_G1,
    count_GEE,
    count_GEO,
    count_GO,
    count_pool,
    generate_f_triples,
    generate_g_family,
    gamma_delta_power,
    is_primitive,
)
from pptriples import checks
from pptriples.checks import odd_part

from oracles import (
    apply_delta_power,
    moebius_inversion_check,
    phi2_divisor_sum,
    sum_phi,
    sum_phi2,
    verify_f_triple,
)


@contextmanager
def criterion(name):
    holder = {"ok": False, "detail": ""}
    start = time.perf_counter()
    try:
        yield holder
        holder["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if holder["ok"] else "FAIL"
        detail = f" {holder['detail']}" if holder["detail"] else ""
        print(f"[{status}] {name}{detail} ({elapsed:.2f}s)")


def test_criterion_01_g_family_soundness():
    with criterion("criterion 1: g-family soundness, g <= 200, first 50") as c:
        families = triples = 0
        for g in range(1, 201):
            if not classify_g(g).admissible:
                continue
            families += 1
            for item in generate_g_family(g, 50):
                t = item.triple
                assert t.a * t.a + t.b * t.b == t.c * t.c
                assert is_primitive(t)
                assert t.c - t.b == g
                triples += 1
        c["detail"] = f"{families} families, {triples} triples"


def test_criterion_02_g_family_completeness():
    with criterion("criterion 2: g-family completeness, c <= 1e5") as c:
        report = checks.check_g_coverage(100_000)
        assert report.ok and report.checks == 31838
        c["detail"] = f"{report.checks} ordered triples found in the family streams"


def test_criterion_03_g_nonexistence():
    with criterion("criterion 3: no hypotenuse gap in {3,5,6,7,10,11,12}, c <= 1e6") as c:
        report = checks.check_nonexistence(
            1_000_000, hyp_gaps=(3, 5, 6, 7, 10, 11, 12), leg_gaps=()
        )
        assert report.ok and report.checks == 159139
        c["detail"] = f"{report.checks} triples scanned"


def test_criterion_04_pell_layer():
    with criterion("criterion 4: Pell layer") as c:
        for m in range(-50, 51):
            sol = gamma_delta_power(m)
            assert sol.x * sol.x - 2 * sol.y * sol.y == -1
        rng = random.Random(0xACCE)
        for _ in range(20):
            t = QuadInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            acc = t
            for n in range(51):
                assert apply_delta_power(t, n) == acc
                acc = acc * DELTA
        known = set()
        m = 0
        while True:
            sol = gamma_delta_power(m)
            if sol.y > 10**5:
                break
            known.add((sol.x, sol.y))
            m += 1
        hits = 0
        for y in range(1, 10**5 + 1):
            t2 = 2 * y * y - 1
            x = math.isqrt(t2)
            if x * x == t2:
                assert (x, y) in known
                hits += 1
        c["detail"] = f"converse matched {hits} solutions"


def test_criterion_05_f_family_spot_values():
    with criterion("criterion 5: f-family spot values") as c:
        spec1 = admissible_f(1)
        got1 = generate_f_triples(spec1, 1, 2)
        assert sorted(ft.triple for ft in got1) == [(3, 4, 5), (20, 21, 29)]
        assert all(verify_f_triple(ft, spec1) for ft in got1)

        spec7 = admissible_f(7)
        got7 = generate_f_triples(spec7, 0, 1)
        assert all(verify_f_triple(ft, spec7) for ft in got7)
        by_triple = {ft.triple: ft for ft in got7}
        # hand-derived values from the generator branch u with norm(u) = 7
        assert by_triple[(8, 15, 17)].m == 0
        assert by_triple[(8, 15, 17)].cf_choice.u == QuadInt(3, 1)
        assert by_triple[(65, 72, 97)].m == 1
        assert by_triple[(65, 72, 97)].cf_choice.u == QuadInt(3, 1)
        # the conjugate branch adds (5, 12, 13) at m = 1; the full sweep is
        # exactly these three (see the decisions ledger on the criterion text)
        assert set(by_triple) == {(5, 12, 13), (8, 15, 17), (65, 72, 97)}
        c["detail"] = "f=1 and f=7 sweeps match hand derivations"


def test_criterion_06_f_family_completeness():
    with criterion("criterion 6: f-family completeness, f in {1,7,17}, c <= 1e6") as c:
        report = checks.check_f_coverage(1_000_000, gaps=(1, 7, 17))
        assert report.ok and report.checks == 34
        c["detail"] = f"{report.checks} oracle triples covered"


def test_criterion_07_f_nonexistence():
    with criterion("criterion 7: no leg gap in {3,5,11,13,19,21}, c <= 1e6") as c:
        report = checks.check_nonexistence(
            1_000_000, hyp_gaps=(), leg_gaps=(3, 5, 11, 13, 19, 21)
        )
        assert report.ok and report.checks == 159139
        c["detail"] = f"{report.checks} triples scanned"


def test_criterion_08_density_formulas_vs_enumeration():
    with criterion("criterion 8: density formulas vs raw enumeration, B <= 2000") as c:
        report = checks.check_density_cross(2000)
        assert report.ok and report.checks == 8000
        c["detail"] = "4 formulas x 2000 bounds"


def test_criterion_09_asymptotics(sieve_1e6, prefix_1e6):
    with criterion("criterion 9: asymptotic convergence at B = 1e6") as c:
        pi2 = math.pi**2
        B = 10**6
        ratio_phi = sum_phi(B, sieve_1e6) * pi2 / (3 * B * B)
        assert 0.999 <= ratio_phi <= 1.001
        ratio_phi2 = sum_phi2(B, sieve_1e6) * pi2 / (2 * B * B)
        assert 0.998 <= ratio_phi2 <= 1.002
        sums = TotientSums(prefix_1e6)
        pool = count_pool(B, sums)
        assert abs(count_GO(B, sums) / pool - 1 / 3) < 0.01
        assert abs(count_GEE(B, sums) / pool - 1 / 3) < 0.01
        assert abs(count_GEO(B, sums) / pool - 1 / 3) < 0.01
        small = count_G1(10**5) / count_pool(10**5, sums)
        assert small < 1e-4
        c["detail"] = (
            f"phi ratio {ratio_phi:.6f}, phi2 ratio {ratio_phi2:.6f}, "
            f"G1 share {small:.2e}"
        )


def test_criterion_10_identity_suite(sieve_1e6):
    with criterion("criterion 10: divisor-sum and inversion identities, n <= 1e4") as c:
        for n in range(1, 10**4 + 1):
            assert phi2_divisor_sum(n) == odd_part(n)
            assert moebius_inversion_check(n, sieve_1e6)
        c["detail"] = "10000 values checked"
