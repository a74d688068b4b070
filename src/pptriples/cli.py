"""Command-line interface: family generation, triple checking, density sweeps.

Commands: gen-g, gen-f, check, density, verify.  CSV (default) and JSON
Lines output; all runs are deterministic, with fixed sort orders and fixed
decimal rendering.  gen-g and gen-f write each record as it is generated,
so a reader that stops early stops the work too.  Each command imports
only the layers it runs, when it runs: `check` and `gen-g` the triples and
hypotenuse-gap layers, `gen-f` the Z[sqrt(2)], Pell and leg-gap layers,
`density` the totient layer, and `verify` the oracles in `checks` with the
layers of its one scope (`nonexistence` none, unless it must place a
counterexample); parsing and the refusal types load none, and only JSON
output loads `json`.  Exit codes:

    0  success, or the reader closed stdout early (`| head`): the run ends quietly
    1  malformed flags or input
    2  inadmissible gap
    3  input beyond the supported factorization range (>= 2**64)
    4  `check` input is not a primitive Pythagorean triple
    5  memory budget refused: the totient table of `density` (about B^(2/3)
       entries) or the `verify density-cross` bound; or memory ran out
    6  `verify` found a property violation
  130  interrupted (Ctrl-C): the run ends quietly, without a traceback
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import chain, islice
from typing import Iterable, TextIO

from ._primes import InadmissibleError, SieveBudgetError, UnsupportedRangeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_RANGE = 3
EXIT_NOT_PPT = 4
EXIT_BUDGET = 5
EXIT_VIOLATION = 6


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # lets exponent ranges with a negative start, e.g. -6..6, pass as values
        self._negative_number_matcher = re.compile(r"^-[0-9]+(\.\.-?[0-9]+)?$")

    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_DECIMAL = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """The one number grammar: ASCII decimal digits with an optional leading
    minus.  int() alone would also take underscores, surrounding spaces, a
    plus sign and non-ASCII digits."""
    if _DECIMAL.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _exponent_range(text: str) -> tuple[int, int]:
    """Parse 'lo..hi' (or a single integer) into an inclusive range.

    An empty range is refused here, before f is factored, as well as in the
    library: `--f 3 --m 2..1` exits 1 for the range, not 2 for the gap."""
    lo, sep, hi = text.partition("..")
    m_lo = _integer(lo)
    m_hi = _integer(hi) if sep else m_lo
    if m_lo > m_hi:
        raise argparse.ArgumentTypeError(f"empty exponent range: {text!r}")
    return m_lo, m_hi


def _grid(text: str) -> list[int]:
    """Parse the density grid; its rules are checked here, before --out is
    opened and truncated, as well as in the library."""
    values = [_integer(part) for part in text.split(",")]
    if any(v < 2 for v in values):
        raise argparse.ArgumentTypeError("grid entries must be >= 2")
    if values != sorted(set(values)):
        raise argparse.ArgumentTypeError("grid must be strictly ascending")
    return values


# Output records: tag -> field names in output order.  Each tuple is both the
# CSV header and the JSON key order after "record".
RECORDS = {
    "g_class": ("g", "kind", "m"),
    "g_family_item": ("n", "k", "r", "s", "a", "b", "c", "stride", "offset"),
    "f_spec": ("f", "admissible", "factorization"),
    "cf_element": ("u_x", "u_y", "choices"),
    "f_triple": ("a", "b", "c", "m", "sign", "u_x", "u_y"),
    "check": (
        "a", "b", "c", "pythagorean", "primitive", "even_leg",
        "r", "s", "g", "g_kind", "g_m", "g_n", "f",
    ),
    "density_row": ("B", "family_count", "pool_count", "ratio", "predicted"),
}

# tag -> its (JSON, CSV) line templates, one %s per field
_LINES = {
    tag: (
        "{" + ", ".join([f'"record": "{tag}"', *(f'"{k}": %s' for k in fields)]) + "}\n",
        ",".join(["%s"] * len(fields)) + "\n",
    )
    for tag, fields in RECORDS.items()
}


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _line(template: str, cell, row: tuple) -> str:
    return template % tuple(map(cell, row))


# rows per write: an unbuffered stream makes a system call per write, and a
# batch of long rows (gen-f's at large exponents) is held only this long
_BATCH = 64


def write_records(
    fmt: str,
    out: TextIO,
    tag: str,
    rows: Iterable[tuple],
    meta: Iterable[tuple[str, tuple]] = (),
    comments: Iterable[str] = (),
) -> None:
    """Stream `tag` records to `out`, one line per value tuple of `rows`.

    JSON Lines output starts with the `meta` records, given as (tag, values)
    pairs; CSV output starts with `comments` as `#` lines, then the header.
    Rows are read and written in batches of `_BATCH`, one write each, the
    head going out with the first: nothing is written before the first row
    is computed.  Each line fills its tag's template.  A batch whose values
    are all exact ints (`type(v) is int`, so no bool or int subclass) fills
    it as it is; any other batch, and every metadata record, has each value
    rendered first (JSON text, or the CSV cell: "" for None, true/false for
    a bool, else `str`).
    """
    if fmt == "json":
        import json  # only JSON output needs the encoder

        cell, template = json.JSONEncoder(separators=(", ", ": ")).encode, _LINES[tag][0]
        head = "".join([_line(_LINES[t][0], cell, values) for t, values in meta])
    else:
        cell, template = _csv_cell, _LINES[tag][1]
        head = "".join([f"# {line}\n" for line in comments] + [",".join(RECORDS[tag]) + "\n"])
    rows = iter(rows)
    while batch := list(islice(rows, _BATCH)):
        if set(map(type, chain.from_iterable(batch))) == {int}:
            # str(n) of an exact int is also its JSON text and its CSV cell
            out.write(head + "".join([template % row for row in batch]))
        else:
            out.write(head + "".join([_line(template, cell, row) for row in batch]))
        head = ""
    if head:  # no rows
        out.write(head)


def cmd_gen_g(args: argparse.Namespace) -> int:
    from .hyp_gap import classify_g, iter_g_family

    gc = classify_g(args.g)
    items = iter_g_family(args.g, args.count)
    write_records(
        args.format, sys.stdout, "g_family_item", items,
        meta=[("g_class", (gc.g, gc.kind.value, gc.m))],
        comments=[f"g={gc.g} kind={gc.kind.value} m={gc.m}"],
    )
    return EXIT_OK


def cmd_gen_f(args: argparse.Namespace) -> int:
    from .leg_gap import admissible_f, cf_elements, iter_f_triples

    spec = admissible_f(args.f)
    elements = cf_elements(spec)
    triples = iter_f_triples(spec, *args.m)
    factor_text = " ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in spec.factorization)
    write_records(
        args.format, sys.stdout, "f_triple",
        ((*ft.triple, ft.m, 1, *ft.cf_choice.u) for ft in triples),
        meta=[("f_spec", (spec.f, spec.admissible, [list(pe) for pe in spec.factorization]))]
        + [("cf_element", (elem.u.x, elem.u.y, list(elem.choices))) for elem in elements],
        comments=[
            f"f={spec.f} admissible factorization={factor_text or '1'}",
            "generators: " + ", ".join(str(elem.u) for elem in elements),
        ],
    )
    return EXIT_OK


def _check_record(a: int, b: int, c: int) -> tuple[dict, int]:
    """The `check` record's fields by name, and the exit code."""
    from .hyp_gap import invert_to_family
    from .triples import Triple, classify_triple

    record = dict.fromkeys(RECORDS["check"])
    record.update(a=a, b=b, c=c, pythagorean=False)
    try:
        t = Triple(a, b, c)
    except ValueError:
        return record, EXIT_NOT_PPT
    cls = classify_triple(t)
    record.update(pythagorean=True, primitive=cls.primitive, even_leg=cls.even_leg, f=cls.f)
    if not cls.primitive:
        return record, EXIT_NOT_PPT
    gc, n = invert_to_family(t)
    m = gc.m  # r - s, as a = (r - s)(r + s), when b is even; else s, as a = 2rs
    r, s = ((t.a // m + m) // 2, (t.a // m - m) // 2) if t.b % 2 == 0 else (t.a // (2 * m), m)
    record.update(r=r, s=s, g=t.c - t.b, g_kind=gc.kind.value, g_m=m, g_n=n)
    return record, EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    record, code = _check_record(args.a, args.b, args.c)
    write_records(args.format, sys.stdout, "check", [tuple(record.values())])
    return code


def _density_values(args: argparse.Namespace) -> Iterable[tuple]:
    """The `density_row` values, computed when the first one is read: the
    totient table is built after --out is open, so an unwritable path fails fast."""
    from .density import Family, density_report, render_ratio

    for r in density_report(Family(args.family), args.grid):
        yield r.B, r.family_count, r.pool_count, render_ratio(r.ratio), render_ratio(r.predicted)


def cmd_density(args: argparse.Namespace) -> int:
    if args.out is None:
        write_records(args.format, sys.stdout, "density_row", _density_values(args))
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_records(args.format, fh, "density_row", _density_values(args))
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from None
    return EXIT_OK


# scope -> (suite in `checks`, bound flag, default bound).  The suite is looked
# up by name when it runs, so a wrapped or patched suite is the one called.  A
# scope refuses the bound flags of the other scopes.
VERIFY = {
    "g-coverage": ("check_g_coverage", "c_max", 100_000),
    "f-coverage": ("check_f_coverage", "c_max", 1_000_000),
    "nonexistence": ("check_nonexistence", "c_max", 1_000_000),
    "pell": ("check_pell", "m_max", 50),
    "density-cross": ("check_density_cross", "b_max", 2000),
}
_BOUND_FLAGS = tuple(dict.fromkeys(flag for _, flag, _ in VERIFY.values()))


def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks

    suite, flag, default = VERIFY[args.scope]
    for other in _BOUND_FLAGS:
        if other != flag and getattr(args, other) is not None:
            message = f"verify {args.scope} reads --{flag}, not --{other}"
            raise ValueError(message.replace("_", "-"))  # dest names to flags
    report = getattr(checks, suite)(getattr(args, flag) or default)  # bounds are >= 1
    print(f"{report.scope}: {report.checks} checks, {report.failures} failures")
    if not report.ok:
        print(f"first counterexample: {report.counterexample}")
        print(f"FAIL {report.scope}")
        return EXIT_VIOLATION
    print(f"PASS {report.scope}")
    return EXIT_OK


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="pptriples",
        description="Generate, classify and verify primitive Pythagorean "
        "triples with fixed hypotenuse or leg gaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("gen-g", help="generate (a, b, b+g) family members")
    p.add_argument("--g", type=_positive, required=True, help="hypotenuse gap g = c - b")
    p.add_argument("--count", type=_positive, default=10, help="number of family members")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_gen_g)

    p = sub.add_parser("gen-f", help="generate (a, a+f, c) triples")
    p.add_argument("--f", type=_positive, required=True, help="leg gap f = b - a")
    p.add_argument(
        "--m",
        type=_exponent_range,
        required=True,
        metavar="LO..HI",
        help="inclusive exponent range, e.g. -3..3",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_gen_f)

    p = sub.add_parser("check", help="classify one candidate triple")
    p.add_argument("a", type=_positive)
    p.add_argument("b", type=_positive)
    p.add_argument("c", type=_positive)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("density", help="density sweep over a grid of bounds")
    # density.Family's values, written out so that parsing loads no layer
    p.add_argument("--family", choices=("GO", "GEE", "GEO", "G1"), required=True)
    p.add_argument(
        "--grid",
        type=_grid,
        required=True,
        help="strictly ascending comma-separated bounds, each >= 2",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("verify", help="run an oracle-equivalence suite")
    p.add_argument("scope", choices=tuple(VERIFY))
    for flag in _BOUND_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), type=_positive)
    p.set_defaults(func=cmd_verify)

    return parser


# refusal type -> exit code, most specific first; every other ValueError is 1
_EXIT_CODES = (
    (InadmissibleError, EXIT_INADMISSIBLE),
    (UnsupportedRangeError, EXIT_RANGE),
    (SieveBudgetError, EXIT_BUDGET),
    (MemoryError, EXIT_BUDGET),
    (ValueError, EXIT_USAGE),
)


def main(argv: list[str] | None = None) -> int:
    # decimal strings of any length are part of the contract, so Python's
    # int/str digit limit (3.11+, process-wide) is lifted for the call and
    # then restored
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        print(exc if isinstance(exc, ValueError) else "out of memory", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early; the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    except KeyboardInterrupt:  # Ctrl-C: 128 + SIGINT, as a shell reports it
        code = 130
    raise SystemExit(code)
