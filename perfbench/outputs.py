"""Output checks for every request, from invariants the benchmark computes itself.

`check` returns None for a correct response and a one-line reason otherwise.
A response is correct when the exit code is the expected one, stderr holds
no traceback, the stdout bytes match the sha256 pinned in golden.json (when
the request has a pin) and every record satisfies the invariants of its
command.  `check_pass` judges a whole pass, adding the cross-request check
of a density pass: GO + GEE + GEO counts at each bound sum to the pool count.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

from workloads import Request, unlimited_digits

GEN_G_FIELDS = ("n", "k", "r", "s", "a", "b", "c", "stride", "offset")
GEN_F_FIELDS = ("a", "b", "c", "m", "sign", "u_x", "u_y")
CHECK_FIELDS = (
    "a", "b", "c", "pythagorean", "primitive", "even_leg",
    "r", "s", "g", "g_kind", "g_m", "g_n", "f",
)
DENSITY_FIELDS = ("B", "family_count", "pool_count", "ratio", "predicted")


class Bad(Exception):
    """An output invariant failed; the message says which."""


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise Bad(why)


def _options(argv: tuple[str, ...]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def _records(lines: list[str], fmt: str, tag: str, fields: tuple[str, ...]) -> list[dict]:
    """Parse item records (CSV rows after a header, or JSON Lines with `tag`)."""
    if fmt == "json":
        rows = [json.loads(line) for line in lines]
        ok = all(r.get("record") == tag and list(r)[1:] == list(fields) for r in rows)
        _require(ok, f"malformed {tag} records")
        return rows
    _require(bool(lines) and lines[0] == ",".join(fields), f"bad CSV header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(fields) for r in rows), "ragged CSV rows")
    return [dict(zip(fields, r)) for r in rows]


def _ints(row: dict, names: str) -> list[int]:
    return [int(row[n]) for n in names.split()]


def _check_gen_g(argv, lines, fmt) -> None:
    opts = _options(argv)
    g, count = int(opts["--g"]), int(opts["--count"])
    if fmt == "json":
        head = json.loads(lines[0])
        _require(head.get("record") == "g_class" and head.get("g") == g, "bad g_class record")
    else:
        _require(lines[0].startswith(f"# g={g} kind="), "bad classification comment")
    rows = _records(lines[1:], fmt, "g_family_item", GEN_G_FIELDS)
    _require(len(rows) == count, f"{len(rows)} items, asked for {count}")
    last = 0
    for row in rows:
        n, k, r, s, a, b, c, stride, offset = _ints(row, " ".join(GEN_G_FIELDS))
        _require(n > last, f"index {n} not increasing")
        _require(a * a + b * b == c * c, f"({a}, {b}, {c}) is not Pythagorean")
        _require(math.gcd(a, b) == 1, f"({a}, {b}, {c}) is not primitive")
        _require(c - b == g, f"({a}, {b}, {c}) has c - b != {g}")
        _require(a == stride * n + offset, f"item {n} leaves the progression")
        _require({a, b} == {r * r - s * s, 2 * r * s}, f"item {n} does not match (r, s)")
        last = n


def _check_gen_f(argv, lines, fmt) -> None:
    opts = _options(argv)
    f = int(opts["--f"])
    lo, _, hi = opts["--m"].partition("..")
    m_lo, m_hi = int(lo), int(hi or lo)
    if fmt == "json":
        _require(json.loads(lines[0]).get("f") == f, "bad f_spec record")
        lines = [line for line in lines[1:] if not line.startswith('{"record": "cf_element"')]
    else:
        _require(lines[0].startswith(f"# f={f} admissible"), "bad spec comment")
        _require(lines[1].startswith("# generators: "), "missing generators comment")
        lines = lines[2:]
    rows = _records(lines, fmt, "f_triple", GEN_F_FIELDS)
    prev = None
    for row in rows:
        a, b, c, m, sign, ux, uy = _ints(row, " ".join(GEN_F_FIELDS))
        _require(a * a + b * b == c * c, f"({a}, {b}, {c}) is not Pythagorean")
        _require(math.gcd(a, b) == 1, f"({a}, {b}, {c}) is not primitive")
        _require(b - a == f, f"({a}, {b}, {c}) has b - a != {f}")
        _require(m_lo <= m <= m_hi and sign in (1, -1), f"branch ({m}, {sign}) out of range")
        _require(abs(ux * ux - 2 * uy * uy) == f, f"generator {ux}{uy:+}*sqrt2 has norm != +/-{f}")
        _require(prev is None or (a, b, c) > prev, "rows not sorted and distinct")
        prev = (a, b, c)


def render_ratio(value: Fraction) -> str:
    q = (2 * value.numerator * 10**6 + value.denominator) // (2 * value.denominator)
    return f"{q // 10**6}.{q % 10**6:06d}"


def _density_rows(argv, stdout: bytes) -> list[tuple[int, int, int]]:
    """(B, family_count, pool_count) rows of a density response."""
    fmt = _options(argv).get("--format", "csv")
    rows = _records(stdout.decode().splitlines(), fmt, "density_row", DENSITY_FIELDS)
    return [tuple(_ints(row, "B family_count pool_count")) for row in rows]


def _check_density(argv, stdout) -> None:
    opts = _options(argv)
    family = opts["--family"]
    grid = [int(b) for b in opts["--grid"].split(",")]
    fmt = opts.get("--format", "csv")
    rows = _records(stdout.decode().splitlines(), fmt, "density_row", DENSITY_FIELDS)
    _require([int(r["B"]) for r in rows] == grid, "rows do not follow the grid")
    predicted = "0.000000" if family == "G1" else "0.333333"
    for row in rows:
        B, fc, pc = _ints(row, "B family_count pool_count")
        _require(pc > 0 and row["ratio"] == render_ratio(Fraction(fc, pc)), f"bad ratio at B={B}")
        _require(row["predicted"] == predicted, f"bad prediction at B={B}")
        _require(family != "G1" or fc == B - 1, f"G1 count at B={B} is not B-1")


def _check_density_pass(results: list[tuple[Request, bytes]]) -> str | None:
    """GO + GEE + GEO equals the pool count at every bound of a shared grid."""
    by_grid: dict[str, dict[str, list]] = {}
    for req, stdout in results:
        opts = _options(req.argv)
        by_grid.setdefault(opts["--grid"], {})[opts["--family"]] = _density_rows(req.argv, stdout)
    for grid, fams in by_grid.items():
        if not {"GO", "GEE", "GEO"} <= fams.keys():
            continue
        for go, gee, geo in zip(fams["GO"], fams["GEE"], fams["GEO"]):
            if not (go[2] == gee[2] == geo[2] == go[1] + gee[1] + geo[1]):
                return f"GO + GEE + GEO != pool at B={go[0]} (grid {grid})"
    return None


def check_pass(requests: list[Request], responses: list, pins: dict[str, str]) -> list[str | None]:
    """The verdict on each response of one pass (objects with code, stdout
    and stderr), the cross-request density check included."""
    verdicts = [check(r, o.code, o.stdout, o.stderr, pins) for r, o in zip(requests, responses)]
    density = [
        (r, o.stdout)
        for r, o, why in zip(requests, responses, verdicts)
        if why is None and r.argv[0] == "density"
    ]
    cross = _check_density_pass(density)
    if cross is not None:
        verdicts = [
            why or (cross if r.argv[0] == "density" else None) for r, why in zip(requests, verdicts)
        ]
    return verdicts


def _expected_check(a: int, b: int, c: int) -> tuple[dict, int]:
    """The `check` record for (a, b, c), derived without the library."""
    rec = dict.fromkeys(CHECK_FIELDS)
    rec.update(a=a, b=b, c=c, pythagorean=a * a + b * b == c * c)
    if not rec["pythagorean"]:
        return rec, 4
    rec["primitive"] = math.gcd(a, b) == 1
    rec["even_leg"] = {(0, 0): "both", (0, 1): "a", (1, 0): "b", (1, 1): "none"}[(a % 2, b % 2)]
    rec["f"] = abs(b - a)
    if not rec["primitive"]:
        return rec, 4
    odd = a if a % 2 else b
    r, s = math.isqrt((c + odd) // 2), math.isqrt((c - odd) // 2)
    g = c - b
    if g % 2:
        m = math.isqrt(g)
        kind, n = "odd-square", (a // m - 1) // 2
    else:
        m = math.isqrt(g // 2)
        kind = "twice-square-odd-root" if m % 2 else "twice-square-even-root"
        n = a // (2 * m) if m % 2 else (a // (2 * m) - 1) // 2
    rec.update(r=r, s=s, g=g, g_kind=kind, g_m=m, g_n=n)
    return rec, 0


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _check_check(argv, lines, fmt, code) -> None:
    a, b, c = map(int, argv[1:4])
    want, want_code = _expected_check(a, b, c)
    _require(code == want_code, f"exit {code}, but the triple calls for {want_code}")
    if fmt == "json":
        _require(len(lines) == 1, "expected one record")
        got = json.loads(lines[0])
        _require(got == {"record": "check", **want}, "check record differs from the expected one")
    else:
        _require(lines[:1] == [",".join(CHECK_FIELDS)], "bad CSV header")
        row = ",".join(_csv_cell(want[k]) for k in CHECK_FIELDS)
        _require(lines[1:] == [row], "check row differs from the expected one")


_VERIFY_LINE = re.compile(r"^(\S+): (\d+) checks, 0 failures$")


def _check_verify(argv, lines) -> None:
    scope = argv[1]
    match = _VERIFY_LINE.match(lines[0]) if lines else None
    ok = match is not None and match[1] == scope and int(match[2]) > 0
    _require(ok, f"bad summary {lines[:1]}")
    _require(lines[1:] == [f"PASS {scope}"], "missing PASS line")


def check(
    req: Request, code: int | None, stdout: bytes, stderr: bytes, pins: dict[str, str]
) -> str | None:
    """None when the response is correct, otherwise the reason it is not."""
    if code is None:
        return f"passed its {req.deadline_s:g} s deadline"
    if b"Traceback" in stderr:
        return "traceback on stderr: " + stderr.decode(errors="replace").strip().splitlines()[-1]
    if code != req.expect:
        return f"exit {code}, expected {req.expect}"
    pin = pins.get(req.key)
    if pin is not None and hashlib.sha256(stdout).hexdigest() != pin:
        return "stdout differs from the pinned sha256"
    command = req.argv[0]
    if code != 0 and command != "check":
        return "output on a refusal" if stdout else None
    with unlimited_digits():
        try:
            lines = stdout.decode().splitlines()
            _require(bool(lines), "no output")
            fmt = _options(req.argv).get("--format", "csv")
            if command == "gen-g":
                _check_gen_g(req.argv, lines, fmt)
            elif command == "gen-f":
                _check_gen_f(req.argv, lines, fmt)
            elif command == "check":
                _check_check(req.argv, lines, fmt, code)
            elif command == "density":
                _check_density(req.argv, stdout)
            else:
                _check_verify(req.argv, lines)
        except (Bad, ValueError, KeyError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return None
