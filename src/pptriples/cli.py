"""Command-line interface: family generation, triple checking, density sweeps.

`parse_args` reads argv by one table, `COMMANDS`, which also gives the
usage line and the -h text.  CSV (default) and JSON Lines output; all runs
are deterministic, with fixed sort orders and fixed decimal rendering.
Records go out in batches as they are generated, one write each: gen-g the
members of a block of 64 family indices, gen-f 64 rows, density one row as
it is counted; so a reader that stops early stops the work too.  Each
command imports only the layers it runs, when it runs (README, "CLI");
parsing and the refusal types load none, and only JSON output loads `json`.
The exit codes are the `EXIT_*` constants, and 130 for an interrupt
(Ctrl-C), which ends the run quietly; a stdout that cannot be written exits
1 with one stderr line, and a stderr that cannot be written loses its lines.
"""

from __future__ import annotations

import os
import re
import sys
from itertools import chain, islice
from types import SimpleNamespace
from typing import Iterable, Iterator, NoReturn, TextIO

from ._primes import InadmissibleError, SieveBudgetError, UnsupportedRangeError

EXIT_OK = 0  # success, or the reader closed stdout early (`| head`): the run ends quietly
EXIT_USAGE = 1  # malformed flags or input, or a stdout that cannot be written
EXIT_INADMISSIBLE = 2  # inadmissible gap
EXIT_RANGE = 3  # input beyond the supported factorization range (>= 2**64)
EXIT_NOT_PPT = 4  # `check` input is not a primitive Pythagorean triple
EXIT_BUDGET = 5  # memory budget refused (`density`, `verify density-cross`), or memory ran out
EXIT_VIOLATION = 6  # `verify` found a property violation


class UsageError(ValueError):
    """A malformed command line (exit 1)."""


_DECIMAL = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """The one number grammar: ASCII decimal digits with an optional leading
    minus.  int() alone would also take underscores, surrounding spaces, a
    plus sign and non-ASCII digits."""
    if _DECIMAL.fullmatch(text) is None:
        raise UsageError(f"not an integer: {text!r}")
    return int(text)


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise UsageError(f"must be positive: {text!r}")
    return value


def _exponent_range(text: str) -> tuple[int, int]:
    """Parse 'lo..hi' (or a single integer) into an inclusive range.

    An empty range is refused here, before f is factored, as well as in the
    library: `--f 3 --m 2..1` exits 1 for the range, not 2 for the gap."""
    lo, sep, hi = text.partition("..")
    m_lo = _integer(lo)
    m_hi = _integer(hi) if sep else m_lo
    if m_lo > m_hi:
        raise UsageError(f"empty exponent range: {text!r}")
    return m_lo, m_hi


def _grid(text: str) -> list[int]:
    """Parse the density grid; its rules are checked here, before --out is
    opened and truncated, as well as in the library."""
    values = [_integer(part) for part in text.split(",")]
    if any(v < 2 for v in values):
        raise UsageError("grid entries must be >= 2")
    if values != sorted(set(values)):
        raise UsageError("grid must be strictly ascending")
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


# tags whose values are always exact ints, whose str() is also the JSON text
# and the CSV cell: their rows fill the template as they are
_EXACT = ("g_family_item", "f_triple")


def write_records(
    fmt: str,
    out: TextIO,
    tag: str,
    batches: Iterable[list[tuple]],
    meta: Iterable[tuple[str, tuple]] = (),
    comments: Iterable[str] = (),
) -> None:
    """Stream `tag` records to `out`, one line per value tuple, one write per
    batch of `batches`, the head going out with the first: nothing is written
    before the first batch is computed.

    JSON Lines output starts with the `meta` records, given as (tag, values)
    pairs; CSV output starts with `comments` as `#` lines, then the header.
    Each batch fills its rows' templates with one `%`: an `_EXACT` tag's
    values as they are, any other tag's and the metadata's rendered first
    (JSON text, or the CSV cell: "" for None, true/false for a bool, else `str`).
    """
    if fmt == "json":
        import json  # only JSON output needs the encoder

        cell, template = json.JSONEncoder(separators=(", ", ": ")).encode, _LINES[tag][0]
        meta = list(meta)  # read twice: the templates, then the values
        cells = map(cell, chain.from_iterable([values for _, values in meta]))
        head = "".join([_LINES[t][0] for t, _ in meta]) % tuple(cells)
    else:
        cell, template = _csv_cell, _LINES[tag][1]
        head = "".join([f"# {line}\n" for line in comments] + [",".join(RECORDS[tag]) + "\n"])
    for batch in batches:
        cells = chain.from_iterable(batch)
        out.write(head + template * len(batch) % tuple(cells if tag in _EXACT else map(cell, cells)))
        head = ""
    if head:  # no rows
        out.write(head)


def _in_64s(rows: Iterable[tuple]) -> Iterator[list[tuple]]:
    """rows in lists of 64: an unbuffered stream makes a system call per
    write, and a batch of long rows (gen-f's at large exponents) is held
    only this long."""
    rows = iter(rows)
    return iter(lambda: list(islice(rows, 64)), [])


def cmd_gen_g(args: SimpleNamespace) -> int:
    from .hyp_gap import classify_g, iter_g_blocks

    gc = classify_g(args.g)
    write_records(
        args.format, sys.stdout, "g_family_item", iter_g_blocks(args.g, args.count),
        meta=[("g_class", (gc.g, gc.kind.value, gc.m))],
        comments=[f"g={gc.g} kind={gc.kind.value} m={gc.m}"],
    )
    return EXIT_OK


def cmd_gen_f(args: SimpleNamespace) -> int:
    from .leg_gap import admissible_f, cf_elements, iter_f_triples

    spec = admissible_f(args.f)
    elements = cf_elements(spec)
    triples = iter_f_triples(spec, *args.m)
    factor_text = " ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in spec.factorization)
    write_records(
        args.format, sys.stdout, "f_triple",
        _in_64s((*ft.triple, ft.m, 1, *ft.cf_choice.u) for ft in triples),
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
    from .triples import Triple

    record = dict.fromkeys(RECORDS["check"])
    record.update(a=a, b=b, c=c, pythagorean=False)
    try:
        t = Triple(a, b, c)
    except ValueError:
        return record, EXIT_NOT_PPT
    # two odd legs would make c*c = 2 mod 4, which no square is
    even_leg = "b" if a % 2 else "a" if b % 2 else "both"
    record.update(pythagorean=True, primitive=False, even_leg=even_leg, f=abs(b - a))
    try:
        gc, n = invert_to_family(t)  # the parameter pair is the primitivity test
    except ValueError:
        return record, EXIT_NOT_PPT
    m = gc.m  # r - s, as a = (r - s)(r + s), when b is even; else s, as a = 2rs
    r, s = ((t.a // m + m) // 2, (t.a // m - m) // 2) if t.b % 2 == 0 else (t.a // (2 * m), m)
    record.update(primitive=True, r=r, s=s, g=t.c - t.b, g_kind=gc.kind.value, g_m=m, g_n=n)
    return record, EXIT_OK


def cmd_check(args: SimpleNamespace) -> int:
    record, code = _check_record(args.a, args.b, args.c)
    write_records(args.format, sys.stdout, "check", [[tuple(record.values())]])
    return code


def _density_values(args: SimpleNamespace) -> Iterator[list[tuple]]:
    """The `density_row` values, one per batch, each counted when it is
    read.  The grid is checked and the totient table built when the first is
    read, after --out is open, so an unwritable path fails fast."""
    from .density import Family, density_report, render_ratio

    for r in density_report(Family(args.family), args.grid):
        yield [(r.B, r.family_count, r.pool_count, render_ratio(r.ratio), render_ratio(r.predicted))]


def cmd_density(args: SimpleNamespace) -> int:
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


def cmd_verify(args: SimpleNamespace) -> int:
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


# command -> (handler, summary, arguments); an argument is name -> (parse,
# default, help).  `--name` is a flag, any other name a positional, read in
# table order.  `parse` is a function of the text or the tuple of texts it
# takes; the default _REQUIRED makes the argument required.  The handler is
# looked up by name when it runs, so a patched handler is the one called.
_REQUIRED = object()
_FORMAT = {"--format": (("csv", "json"), "csv", "output format")}
COMMANDS = {
    "gen-g": ("cmd_gen_g", "generate (a, b, b+g) family members", {
        "--g": (_positive, _REQUIRED, "hypotenuse gap g = c - b"),
        "--count": (_positive, 10, "number of family members"), **_FORMAT}),
    "gen-f": ("cmd_gen_f", "generate (a, a+f, c) triples", {
        "--f": (_positive, _REQUIRED, "leg gap f = b - a"),
        "--m": (_exponent_range, _REQUIRED, "inclusive exponent range LO..HI"), **_FORMAT}),
    "check": ("cmd_check", "classify one candidate triple (a, b, c)", {
        **dict.fromkeys("abc", (_positive, _REQUIRED, "a side")), **_FORMAT}),
    "density": ("cmd_density", "density sweep over a grid of bounds", {
        # density.Family's values, written out so that parsing loads no layer
        "--family": (("GO", "GEE", "GEO", "G1"), _REQUIRED, "gap family"),
        "--grid": (_grid, _REQUIRED, "strictly ascending comma-separated bounds, each >= 2"),
        **_FORMAT, "--out": (str, None, "write to a file instead of stdout")}),
    "verify": ("cmd_verify", "run an oracle-equivalence suite", {
        "scope": (tuple(VERIFY), _REQUIRED, "the suite to run"), **{
            "--" + flag.replace("_", "-"): (_positive, None, "bound of " + ", ".join(
                f"{scope} (default {n})" for scope, (_, f, n) in VERIFY.items() if f == flag))
            for flag in _BOUND_FLAGS}}),
}
_TOP = {"command": (tuple(COMMANDS), _REQUIRED, "")}  # argv before a known command


def _usage(command: str | None, full: bool = False) -> str:
    """The usage line; with `full`, the -h text: one more line per command or argument."""
    words, rows = ["usage: pptriples", *([command] if command else []), "[-h]"], []
    for name, (parse, default, text) in (COMMANDS[command][2] if command else _TOP).items():
        word = "{" + ",".join(parse) + "}" if isinstance(parse, tuple) else name[2:].upper()
        word = f"{name} {word}" if name.startswith("-") else name if callable(parse) else word
        words.append(word if default is _REQUIRED else f"[{word}]")
        rows.append((word, text if default in (None, _REQUIRED) else f"{text} (default {default})"))
    if command is None:
        rows = [(name, summary) for name, (_, summary, _) in COMMANDS.items()]
    lines = [" ".join(words), ""] + [f"  {left:<21} {right}" for left, right in rows]
    return "\n".join(lines) if full else lines[0]


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv by `COMMANDS`: the command, then its positionals in order
    and its flags as `--name value` or `--name=value`, never abbreviated; a
    flag's value is the next token even when it starts with `-`, and a
    repeated flag keeps its last value.  Returns the `command`, `help` (true
    after -h or --help, where reading stops) and each argument by name
    (`--c-max` as `c_max`).  Raises UsageError: usage line, `error:` line."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    spec, values = (COMMANDS[command][2] if command else _TOP), {}
    tokens = iter(argv[1:] if command else argv)
    positionals = [name for name in spec if not name.startswith("-")]
    try:
        for token in tokens:
            if token in ("-h", "--help"):
                return SimpleNamespace(command=command, help=True)
            if token.startswith("-"):
                name, eq, text = token.partition("=")
                text = text if eq else next(tokens, None)
            else:
                name, text = positionals.pop(0) if positionals else None, token
            if name not in spec:
                raise UsageError(f"unrecognized arguments: {token}")
            parse = spec[name][0]
            try:
                if text is None or isinstance(parse, tuple) and text not in parse:
                    raise UsageError("expected one argument" if text is None else
                                     f"invalid choice: {text!r} (choose from {', '.join(parse)})")
                values[name] = text if isinstance(parse, tuple) else parse(text)
            except UsageError as exc:
                raise UsageError(f"argument {name}: {exc}") from None
        if missing := [n for n, (_, d, _) in spec.items() if d is _REQUIRED and n not in values]:
            raise UsageError("the following arguments are required: " + ", ".join(missing))
    except UsageError as exc:
        prog = f"pptriples {command}" if command else "pptriples"
        raise UsageError(f"{_usage(command)}\n{prog}: error: {exc}") from None
    return SimpleNamespace(command=command, help=False, **{
        name.lstrip("-").replace("-", "_"): values.get(name, default)
        for name, (_, default, _) in spec.items()})


# refusal type -> exit code, most specific first; every other ValueError is 1
_EXIT_CODES = (
    (InadmissibleError, EXIT_INADMISSIBLE),
    (UnsupportedRangeError, EXIT_RANGE),
    (SieveBudgetError, EXIT_BUDGET),
    (MemoryError, EXIT_BUDGET),
    (ValueError, EXIT_USAGE),
)


def main(argv: list[str] | None = None) -> int:
    # decimal strings of any length are part of the contract, so Python's int/str
    # digit limit (3.11+, process-wide) is lifted for the call and then restored
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.help:
            print(_usage(args.command, full=True))
            return EXIT_OK
        return globals()[COMMANDS[args.command][0]](args)
    except (ValueError, MemoryError) as exc:
        _to_stderr(exc if isinstance(exc, ValueError) else "out of memory")
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def _to_stderr(line: object) -> None:
    """Print a line to stderr, or drop it: the run keeps its exit code."""
    try:
        if sys.stderr is not None:  # fd 2 closed (`2>&-`): print() would use stdout
            print(line, file=sys.stderr)
    except OSError:  # fd 2 not writable (`2</dev/null`)
        pass


def _flush(stream: TextIO | None) -> None:
    """Flush a stream that may be missing (`2>&-`) or unwritable; the run is
    ending with its exit code already set, so a failure goes unreported."""
    try:
        if stream is not None:
            stream.flush()
    except OSError:
        pass


def entrypoint() -> NoReturn:
    """Run `main` on the process's argv and end the process with its code.

    Once stdout and stderr are flushed, `os._exit` ends the process: the
    interpreter's teardown (module cleanup, the last collection, freeing
    every object) and `atexit` callbacks are skipped.  An unexpected
    exception still propagates with its traceback."""
    if sys.stdout is None:  # fd 1 closed (`>&-`): Python then sets no stdout
        _to_stderr("cannot write stdout: it is closed")
        code = EXIT_USAGE
    else:
        # stdout is UTF-8 with LF line endings whatever the locale, as --out is
        sys.stdout.reconfigure(encoding="utf-8", newline="\n")
        try:
            code = main()
            sys.stdout.flush()
        except KeyboardInterrupt:  # Ctrl-C: 128 + SIGINT, as a shell reports it
            code = 130
            _flush(sys.stdout)  # what was written before the interrupt goes out
        except BrokenPipeError:  # the reader stopped early (`| head`)
            code = EXIT_OK
        except OSError as exc:  # stdout's (`> /dev/full`): stderr and --out errors stay in main
            _to_stderr(f"cannot write stdout: {exc}")
            code = EXIT_USAGE
    _flush(sys.stderr)
    os._exit(code)
