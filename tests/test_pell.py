import math
import random
import time

import pytest

from pptriples import DELTA, GAMMA, QuadInt, gamma_delta_power
from pptriples.checks import CheckReport, check_pell

from oracles import apply_delta_power, recurrence_coeffs


def test_initial_coefficients():
    assert (recurrence_coeffs(0).A, recurrence_coeffs(0).B) == (1, 0)
    assert (recurrence_coeffs(1).A, recurrence_coeffs(1).B) == (3, 2)


def test_second_coefficients_cross_check():
    rc = recurrence_coeffs(2)
    assert (rc.A, rc.B) == (17, 12)
    # 41 + 29*sqrt(2) = 17*(1 + sqrt(2)) + 12*(2 + sqrt(2))
    assert GAMMA * DELTA * DELTA == QuadInt(17 * 1 + 12 * 2, 17 * 1 + 12 * 1)


def test_recurrence_rejects_negative():
    with pytest.raises(ValueError):
        recurrence_coeffs(-1)


def test_apply_delta_power_examples():
    assert apply_delta_power(QuadInt(1, 1), 1) == QuadInt(7, 5)
    assert apply_delta_power(QuadInt(12, -5), 0) == QuadInt(12, -5)
    assert apply_delta_power(QuadInt(1, 1), 2) == QuadInt(41, 29)


def test_apply_delta_power_matches_plain_multiplication():
    rng = random.Random(0xD317A)
    sample = [QuadInt(rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)) for _ in range(20)]
    for t in sample:
        acc = t
        for n in range(51):
            assert apply_delta_power(t, n) == acc
            acc = acc * DELTA


def test_check_pell_steps_the_recurrence_once_per_n():
    """The suite's report is the one pinned when it recomputed the
    coefficients from n = 0 for every n, and its cost grows near-linearly."""
    assert check_pell(50) == CheckReport("pell", 1128, 0, None)
    assert check_pell(400) == CheckReport("pell", 8828, 0, None)
    times = []
    for _ in range(2):  # the better of two, against the host's drift
        start = time.perf_counter()
        assert check_pell(1600) == CheckReport("pell", 35228, 0, None)
        times.append(time.perf_counter() - start)
    assert min(times) < 1.0


def test_neg_pell_solution_examples():
    assert gamma_delta_power(0) == QuadInt(1, 1)
    assert gamma_delta_power(1) == QuadInt(7, 5)
    assert gamma_delta_power(-1) == QuadInt(-1, 1)


def test_neg_pell_solutions_up_to_50():
    for m in range(-50, 51):
        sol = gamma_delta_power(m)
        assert sol.x * sol.x - 2 * sol.y * sol.y == -1


def test_delta_power_negative_exponent():
    assert DELTA**-1 == DELTA.conjugate()
    for m in range(-6, 7):
        assert DELTA**m * DELTA**-m == QuadInt(1, 0)
    assert gamma_delta_power(-2) == GAMMA * DELTA.conjugate() ** 2


def test_exhaustive_converse_to_1e5():
    """Every solution with 0 < y <= 1e5 comes from GAMMA * DELTA**m."""
    known = set()
    m = 0
    while True:
        sol = gamma_delta_power(m)
        if sol.y > 10**5:
            break
        known.add((sol.x, sol.y))
        assert abs(m) <= 10
        m += 1
    found = []
    for y in range(1, 10**5 + 1):
        t = 2 * y * y - 1
        x = math.isqrt(t)
        if x * x == t:
            found.append((x, y))
    assert found and set(found) == known


def test_step_identity_components():
    # (A + 2B) + (A + B) sqrt(2) equals GAMMA * DELTA**m, checked against
    # plain ring exponentiation.
    for m in range(31):
        rc = recurrence_coeffs(m)
        lhs = QuadInt(rc.A + 2 * rc.B, rc.A + rc.B)
        assert lhs == GAMMA * DELTA**m
        assert lhs == apply_delta_power(GAMMA, m)
