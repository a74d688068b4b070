"""Seeded request lists for the four benchmark workloads.

A workload is a list of slots.  Every pass of a run sends one request (or one
fixed group of requests) per slot, and the seed picks which candidate each
slot uses.  Candidates inside a slot are chosen to cost about the same, so a
pass does the same amount of work whatever the seed, while the inputs the
program sees differ from seed to seed.  Because every slot draws from a
finite pool, `catalog()` can list every request any seed can produce, and
`pin.py` pins the sha256 of each one's stdout.

Known-defect requests are kept apart from the slots: they are run as probes
(see README.md) and never enter the timed passes.
"""

from __future__ import annotations

import contextlib
import math
import random
import sys
from dataclasses import dataclass

WORKLOADS = ("hyp-gen", "leg-gen", "density-sweep", "oracle-verify")

REQUEST_DEADLINE_S = 30.0
# A fixed defect does tiny work, so a few seconds separate "fixed" from "hangs".
DEFECT_DEADLINE_S = 3.0


@contextlib.contextmanager
def unlimited_digits():
    """Lift the int/str digit limit (Python >= 3.11) for the benchmark's own
    conversions, leaving the program's in-process runs at the default."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    saved = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@dataclass(frozen=True)
class Request:
    """One CLI call: the arguments after `python -m pptriples`."""

    argv: tuple[str, ...]
    expect: int = 0
    deadline_s: float = REQUEST_DEADLINE_S

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Slot:
    """Candidates of equal cost; a candidate is a group of requests sent together."""

    choices: tuple[tuple[Request, ...], ...]
    tiny: bool = False  # part of the reduced request list the self-test runs
    full: bool = True  # part of the request list a measured run sends


def _slot(requests, tiny: bool = False) -> Slot:
    return Slot(tuple((r,) for r in requests), tiny)


def _fmt(argv: list[str], fmt: str) -> tuple[str, ...]:
    return tuple(argv + (["--format", "json"] if fmt == "json" else []))


# --- hyp-gen -----------------------------------------------------------------

# Prime roots make nearly every index valid, so the cost per item is alike.
_SMALL_ODD_ROOTS = (101, 103, 107, 109, 113, 127, 131, 137)
_SMALL_EVEN_ROOTS = tuple(2 * q for q in (53, 59, 61, 67, 71, 73, 79, 83))
# Roots near 10**6: the walk to the first valid index (about m/2 or m steps)
# dominates, and its length varies by well under 1% across the pool.
_BIG_ODD_ROOTS = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121)
_BIG_TWICE_ODD_ROOTS = (500009, 500029, 500041, 500057, 500069, 500083, 500107, 500111)
_INADMISSIBLE_G = (3, 5, 6, 7, 10, 11, 12, 13, 14, 15)
GEN_G_COUNT = 15000
BIG_ROOT_COUNT = 20


def _gen_g(g: int, count: int, fmt: str) -> Request:
    return Request(_fmt(["gen-g", "--g", str(g), "--count", str(count)], fmt))


def _hyp_gen() -> list[Slot]:
    gaps = {
        "odd-square": [m * m for m in _SMALL_ODD_ROOTS],
        "twice-square-odd-root": [2 * m * m for m in _SMALL_ODD_ROOTS],
        "twice-square-even-root": [2 * m * m for m in _SMALL_EVEN_ROOTS],
    }
    slots = [
        _slot(_gen_g(g, GEN_G_COUNT, fmt) for g in pool)
        for pool in gaps.values()
        for fmt in ("csv", "json")
    ]
    slots.append(_slot((_gen_g(m * m, BIG_ROOT_COUNT, "csv") for m in _BIG_ODD_ROOTS), tiny=True))
    slots.append(_slot(_gen_g(2 * m * m, BIG_ROOT_COUNT, "json") for m in _BIG_TWICE_ODD_ROOTS))
    refusals = (Request(("gen-g", "--g", str(g), "--count", "5"), 2) for g in _INADMISSIBLE_G)
    slots.append(_slot(refusals, tiny=True))
    return slots


# --- leg-gen -----------------------------------------------------------------

_SPLIT_PRIMES = (7, 17, 23, 31, 41, 47, 71, 73, 79, 89, 97, 103, 113, 127, 137, 151)
# Split primes whose minimal norm-p element has y in a narrow band, so the
# generator scan (linear in y) costs about the same for every pool member.
_PRIMES_1E11 = (  # y in [30000, 34000]
    100000000943, 100000002497, 100000003447, 100000006721,
    100000007143, 100000010863, 100000011833, 100000014607,
)
_PRIMES_1E12 = (  # y in [400000, 440000]
    1000000000921, 1000000001881, 1000000003087, 1000000003993,
    1000000006081, 1000000006241, 1000000007519, 1000000007887,
)
_INADMISSIBLE_F = (3, 5, 11, 13, 19, 21, 35, 51, 69, 85)
F1_SPANS = tuple(range(1496, 1504))


def _gen_f(f: int, lo: int, hi: int, fmt: str) -> Request:
    return Request(_fmt(["gen-f", "--f", str(f), "--m", f"{lo}..{hi}"], fmt))


def _products(k: int) -> list[int]:
    """Products of k consecutive split primes, one per window start."""
    return [math.prod(_SPLIT_PRIMES[i : i + k]) for i in range(8)]


def _leg_gen() -> list[Slot]:
    return [
        _slot(_gen_f(1, -span, span, "csv") for span in F1_SPANS),
        _slot(_gen_f(p, -800, 800, "json") for p in _SPLIT_PRIMES),
        _slot(_gen_f(f, -400, 400, "csv") for f in _products(3)),
        _slot(_gen_f(f, -200, 200, "json") for f in _products(4)),
        _slot((_gen_f(p, -3, 3, "csv") for p in _PRIMES_1E11), tiny=True),
        _slot(_gen_f(p, -3, 3, "json") for p in _PRIMES_1E12),
        _slot((Request(("gen-f", "--f", str(f), "--m", "0..2"), 2) for f in _INADMISSIBLE_F), True),
    ]


# --- density-sweep -----------------------------------------------------------

# Each pass sweeps all four families over one shared grid, so the GO, GEE and
# GEO counts at each bound can be checked to sum to the pool count.  The top
# bound sets the sieve size (time and memory), so it stays within 0.2%.
DENSITY_FORMATS = (("GO", "csv"), ("GEE", "json"), ("GEO", "csv"), ("G1", "json"))


def _grids(top: int, shift: int) -> list[tuple[int, ...]]:
    return [
        (shift + 10 * i + 7, 100 * shift + 100 * i + 3, 1000 * shift + i, top - 500 * i)
        for i in range(8)
    ]


def _density_group(grid: tuple[int, ...]) -> tuple[Request, ...]:
    text = ",".join(map(str, grid))
    return tuple(
        Request(_fmt(["density", "--family", fam, "--grid", text], fmt))
        for fam, fmt in DENSITY_FORMATS
    )


def _density_sweep() -> list[Slot]:
    return [
        Slot(tuple(_density_group(g) for g in _grids(2_000_000, 1000))),
        Slot(tuple(_density_group(g) for g in _grids(100_000, 10)), tiny=True, full=False),
    ]


# --- oracle-verify -----------------------------------------------------------

VERIFY_SCOPES = ("g-coverage", "f-coverage", "nonexistence", "pell", "density-cross")


def _ppt_pool(kind: str) -> list[tuple[int, int, int]]:
    """Primitive triples of about 40 digits, ordered so that c - b has `kind`.

    With r > s coprime and of opposite parity, (r*r - s*s, 2rs, c) has gap
    (r - s)**2, an odd square; the swapped order has gap 2*s*s, twice a square
    whose root parity is that of s.
    """
    rng = random.Random(f"ppt-pool/{kind}")
    out: list[tuple[int, int, int]] = []
    while len(out) < 8:
        r = rng.randrange(10**19, 10**20)
        s = rng.randrange(10**18, r)
        if (r - s) % 2 == 0 or math.gcd(r, s) != 1:
            continue
        odd, even, c = r * r - s * s, 2 * r * s, r * r + s * s
        if kind == "odd-square":
            out.append((odd, even, c))
        elif kind == ("twice-square-odd-root" if s % 2 else "twice-square-even-root"):
            out.append((even, odd, c))
    return out


def _check(t: tuple[int, int, int], fmt: str, expect: int = 0) -> Request:
    return Request(_fmt(["check", *map(str, t)], fmt), expect=expect)


def _oracle_verify() -> list[Slot]:
    slots = [_slot([Request(("verify", scope))], tiny=scope == "pell") for scope in VERIFY_SCOPES]
    for kind in ("odd-square", "twice-square-odd-root", "twice-square-even-root"):
        for fmt in ("csv", "json"):
            tiny = kind == "odd-square" and fmt == "csv"
            slots.append(_slot((_check(t, fmt) for t in _ppt_pool(kind)), tiny))
    base = _ppt_pool("odd-square")
    for fmt in ("csv", "json"):
        # a multiple of a primitive triple, and a near miss of one: both exit 4
        multiples = (_check((k * a, k * b, k * c), fmt, 4) for k, (a, b, c) in enumerate(base, 2))
        slots.append(_slot(multiples, tiny=fmt == "json"))
        near_misses = (_check((a, b, c + 2), fmt, 4) for a, b, c in base)
        slots.append(_slot(near_misses, tiny=fmt == "csv"))
    return slots


_WORKLOAD_SLOTS = {
    "hyp-gen": _hyp_gen,
    "leg-gen": _leg_gen,
    "density-sweep": _density_sweep,
    "oracle-verify": _oracle_verify,
}


def slots(workload: str, tiny: bool = False) -> list[Slot]:
    return [s for s in _WORKLOAD_SLOTS[workload]() if (s.tiny if tiny else s.full)]


def requests(workload: str, seed: int, tiny: bool = False) -> list[Request]:
    """The request list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    return [r for s in slots(workload, tiny) for r in rng.choice(s.choices)]


def catalog() -> list[Request]:
    """Every request any seed can produce, in either size."""
    seen: dict[str, Request] = {}
    for workload in WORKLOADS:
        for tiny in (False, True):
            for s in slots(workload, tiny):
                for group in s.choices:
                    for r in group:
                        seen.setdefault(r.key, r)
    return list(seen.values())


# --- known defects -----------------------------------------------------------

def _big_ppt(rng: random.Random) -> tuple[int, int, int]:
    """A primitive triple with a 5000-digit hypotenuse."""
    while True:
        r = rng.randrange(10**2499, 10**2500)
        s = rng.randrange(10**2498, r)
        if (r - s) % 2 and math.gcd(r, s) == 1:
            return r * r - s * s, 2 * r * s, r * r + s * s


def defects(workload: str, seed: int) -> list[Request]:
    """Requests inside the documented contract that fail at the first
    measured revision; each should exit 0 with checked output."""
    if workload == "hyp-gen":
        # walks about 5*10**7 indices, one at a time, before the first valid one
        g = (10**8 + 1) ** 2
        return [Request(("gen-g", "--g", str(g), "--count", "2"), deadline_s=DEFECT_DEADLINE_S)]
    if workload == "leg-gen":
        return [
            # admissible prime below 2**64; the generator scan is linear in sqrt(p)
            Request(("gen-f", "--f", str(2**64 - 95), "--m", "0..0"), deadline_s=DEFECT_DEADLINE_S),
            # rendering a 4600-digit leg trips the int/str conversion limit
            Request(("gen-f", "--f", "1", "--m", "6000..6000"), deadline_s=DEFECT_DEADLINE_S),
        ]
    if workload == "oracle-verify":
        # rejected as "not an integer" by the 4300-digit int/str limit
        rng = random.Random(f"{workload}/defect/{seed}")
        with unlimited_digits():
            argv = ("check", *map(str, _big_ppt(rng)))
        return [Request(argv, deadline_s=DEFECT_DEADLINE_S)]
    return []
