import ast
import contextlib
import doctest
import enum
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import pptriples
from pptriples import (
    CfElement,
    DensityRow,
    FTriple,
    GClass,
    GFamilyItem,
    QuadInt,
    Triple,
    _primes,
    admissible_f,
    checks,
    cli,
    density,
    generate_g_family,
    hyp_gap,
    triples,
)
from pptriples.cli import COMMANDS, RECORDS, VERIFY, UsageError, main, parse_args, write_records

import oracles

README = Path(__file__).resolve().parent.parent / "README.md"

EXPECTED_RECORD_KEYS = {
    "g_class": {"record", "g", "kind", "m"},
    "g_family_item": {"record", "n", "k", "r", "s", "a", "b", "c", "stride", "offset"},
    "f_spec": {"record", "f", "admissible", "factorization"},
    "cf_element": {"record", "u_x", "u_y", "choices"},
    "f_triple": {"record", "a", "b", "c", "m", "sign", "u_x", "u_y"},
    "check": {
        "record", "a", "b", "c", "pythagorean", "primitive", "even_leg",
        "r", "s", "g", "g_kind", "g_m", "g_n", "f",
    },
    "density_row": {"record", "B", "family_count", "pool_count", "ratio", "predicted"},
}


def test_readme_json_schemas_match_records():
    text = README.read_text(encoding="utf-8")
    block = text.split("JSON record schemas (fixed key order):", 1)[1].split("```")[1]
    documented = {
        tag: tuple(re.findall(r'"(\w+)"', body))
        for tag, body in re.findall(r"(\w+)\s*\{([^}]*)\}", block)
    }
    assert documented == {tag: ("record",) + fields for tag, fields in RECORDS.items()}


def test_record_types_carry_exactly_their_record_fields():
    assert GClass._fields == RECORDS["g_class"]
    assert GFamilyItem._fields == RECORDS["g_family_item"]
    assert DensityRow._fields == RECORDS["density_row"]


def test_readme_csv_columns_match_records():
    text = README.read_text(encoding="utf-8")
    documented = set(re.findall(r"`(\w+(?:,\w+)+)`", text))
    tables = ("g_family_item", "f_triple", "check", "density_row")  # the rest are `#` comments
    assert documented == {",".join(RECORDS[tag]) for tag in tables}


def test_readme_verify_flags_match_table():
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\s*\| `([\w-]+)` \| `--([\w-]+)` \| (\d+) \|$", text, re.M)
    assert rows == [
        (scope, flag.replace("_", "-"), str(default))
        for scope, (_, flag, default) in VERIFY.items()
    ]


def test_readme_library_block_runs():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", str(README), 0)
    results = doctest.DocTestRunner().run(test)
    assert results.attempted > 0 and results.failed == 0


# helpers that left the top-level package for `pptriples.checks`, where
# `check_pell` and `check_density_cross` run them
VERIFY_HELPERS = ("RecurrencePair", "odd_part")
# oracles that no verify scope runs: they left the library for `tests/oracles.py`
TEST_ORACLES = (
    "verify_f_triple",
    "leg_from_gap",
    "is_associate",
    "recurrence_coeffs",
    "apply_delta_power",
    "divisors",
    "totient",
    "moebius",
    "_check_bound",
    "sum_phi",
    "sum_phi2",
    "phi2",
    "phi2_divisor_sum",
    "moebius_inversion_check",
)


def test_exports_is_the_one_export_list():
    """No module named in `_EXPORTS` repeats its names in an `__all__`."""
    for module in pptriples._EXPORTS:
        assert not hasattr(importlib.import_module(f"pptriples.{module}"), "__all__"), module


def test_every_export_resolves_and_the_test_oracles_left_the_library():
    for name in pptriples.__all__:
        home = importlib.import_module(f"pptriples.{pptriples._HOME[name]}")
        assert getattr(pptriples, name) is getattr(home, name), name
    assert set(pptriples.__all__) <= set(dir(pptriples))
    with pytest.raises(AttributeError):
        pptriples.no_such_name
    assert pptriples.SieveBudgetError is _primes.SieveBudgetError is density.SieveBudgetError
    for name in VERIFY_HELPERS:
        assert name not in pptriples.__all__
        assert name in checks.__all__ and hasattr(checks, name)
    for name in TEST_ORACLES:
        assert name not in pptriples.__all__ and not hasattr(checks, name), name
        assert callable(getattr(oracles, name, None)), name
    # the parser spells out density.Family's values, so that parsing loads no layer
    choices, _, _ = COMMANDS["density"][2]["--family"]
    assert list(choices) == [f.value for f in pptriples.Family]


def test_checks_holds_only_what_a_verify_scope_runs():
    """Every top-level function and class of `checks` is named, directly or
    through others of them, by a `check_*` suite or by `CheckReport`; an
    oracle only the tests use belongs in `tests/oracles.py`."""
    tree = ast.parse(Path(checks.__file__).read_text(encoding="utf-8"))
    defs = {
        node.name: node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    names = {
        name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & defs.keys()
        for name, node in defs.items()
    }
    todo = [name for name in defs if name.startswith("check_") or name == "CheckReport"]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += names[name]
    assert sorted(defs.keys() - reached) == []


# argv -> the pptriples modules `cli.main(argv)` loads besides `cli`
FOOTPRINTS = {
    ("check", "3", "4", "5"): {"_primes", "triples", "hyp_gap"},
    ("gen-g", "--g", "9", "--count", "2"): {"_primes", "triples", "hyp_gap"},
    ("gen-f", "--f", "7", "--m", "-1..1"): {"_primes", "triples", "zsqrt2", "pell", "leg_gap"},
    ("density", "--family", "GO", "--grid", "10"): {"_primes", "density"},
    ("verify", "g-coverage", "--c-max", "30"): {"_primes", "triples", "hyp_gap", "checks"},
    ("verify", "f-coverage", "--c-max", "30"): {
        "_primes", "triples", "zsqrt2", "pell", "leg_gap", "checks"
    },
    ("verify", "nonexistence", "--c-max", "30"): {"_primes", "checks"},
    ("verify", "pell", "--m-max", "3"): {"_primes", "zsqrt2", "pell", "checks"},
    ("verify", "density-cross", "--b-max", "10"): {"_primes", "density", "checks"},
}


def test_each_command_loads_only_its_layers():
    """No command loads `dataclasses` (and the `inspect` and `ast` behind it),
    `argparse` or `fractions` and `decimal` either, and no CSV or `verify`
    command loads `json`, unless the interpreter's own start-up (`site`)
    already has.  Only the commands that load `leg_gap` load `heapq`:
    `triples` imports it when its enumerator is first read, so `check` and
    `gen-g`, which load `triples`, do not."""
    stdlib = ", ".join(
        f"{name!r} in sys.modules"
        for name in ("dataclasses", "json", "argparse", "fractions", "decimal", "heapq")
    )
    bare = subprocess.run(
        [sys.executable, "-c", f"import sys; print({stdlib})"],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    *others, bare_heapq = bare.stdout.split()
    probe = (
        "import contextlib, io, sys, pptriples.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = pptriples.cli.main(sys.argv[1:])\n"
        f"print(code, {stdlib}, "
        "*sorted(m for m in sys.modules if m.startswith('pptriples.')))"
    )
    for argv, layers in FOOTPRINTS.items():
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True, text=True, env=child_env(),
        )
        heapq = bare_heapq == "True" or "leg_gap" in layers
        loaded = " ".join(sorted(f"pptriples.{name}" for name in layers | {"cli"}))
        assert (argv, proc.returncode, proc.stdout, proc.stderr) == (
            argv, 0, f"0 {' '.join(others)} {heapq} {loaded}\n", ""
        )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_jsonl(out):
    records = [json.loads(line) for line in out.splitlines()]
    for rec in records:
        assert set(rec) == EXPECTED_RECORD_KEYS[rec["record"]]
    return records


class TestGenG:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "gen-g", "--g", "9", "--count", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# g=9 kind=odd-square m=3"
        assert lines[1] == "n,k,r,s,a,b,c,stride,offset"
        assert lines[2] == "2,5,4,1,15,8,17,6,3"
        assert lines[3] == "3,7,5,2,21,20,29,6,3"

    def test_gap_two(self, capsys):
        code, out, _ = run(capsys, "gen-g", "--g", "2", "--count", "1")
        assert code == 0
        assert "2,2,2,1,4,3,5,2,0" in out.splitlines()

    def test_inadmissible_exits_2(self, capsys):
        code, out, err = run(capsys, "gen-g", "--g", "3", "--count", "1")
        assert code == 2
        assert out == "" and "inadmissible" in err

    def test_malformed_flag_exits_1(self):
        assert main(["gen-g", "--g", "nine"]) == 1

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "gen-g", "--g", "9", "--count", "2", "--format", "json")
        assert code == 0
        records = validate_jsonl(out)
        assert records[0]["record"] == "g_class"
        assert [r["a"] for r in records[1:]] == [15, 21]

    def test_a_reader_that_stops_stops_the_blocks(self, monkeypatch):
        """A reader that goes away after the first write leaves a
        million-member request with at most two blocks built: the one
        written and the one whose write failed."""

        class Closing(CountingStream):
            def write(self, text):
                if self.writes:
                    raise BrokenPipeError
                return super().write(text)

        built = []
        rows = hyp_gap._rows
        monkeypatch.setattr(hyp_gap, "_rows", lambda gc, ns: built.append(ns) or rows(gc, ns))
        monkeypatch.setattr(sys, "stdout", Closing())
        with pytest.raises(BrokenPipeError):
            main(["gen-g", "--g", "9", "--count", "1000000"])
        assert 1 <= len(built) <= 2

    def test_rows_are_the_family_items(self, capsys):
        assert RECORDS["g_family_item"] == GFamilyItem._fields
        for g in (9, 2, 8):
            items = generate_g_family(g, 3)
            _, out, _ = run(capsys, "gen-g", "--g", str(g), "--count", "3")
            assert out.splitlines()[2:] == [",".join(map(str, it)) for it in items]
            for it in items:
                assert type(it.triple) is Triple and it.triple == it[4:7]


def reference_line(fmt, tag, values):
    """The reference rendering of a record line: a dict through the JSON
    encoder, or the CSV cells joined by commas."""
    if fmt == "json":
        record = dict(zip(("record",) + RECORDS[tag], (tag, *values)))
        return json.JSONEncoder(separators=(", ", ": ")).encode(record) + "\n"

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    return ",".join(map(cell, values)) + "\n"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2

    def __str__(self):
        return self.name


# small ints, and ints of up to 4000 digits either side of 0
SMALL = st.integers(-(10**6), 10**6)
INTS = SMALL | st.builds(
    lambda sign, digits, low: sign * (10 ** (digits - 1) + low),
    st.sampled_from([-1, 1]), st.integers(1, 4000), st.integers(0, 10**6),
)
# int subclasses, each rendered unlike its int value: a bool as true or false,
# a Level by its name as a CSV cell and by its value as JSON text
INT_LIKE = INTS | st.booleans() | st.sampled_from(list(Level))
CELLS = st.recursive(
    INT_LIKE
    | st.none()
    | st.text(alphabet=st.sampled_from('%s"\\,é✓ \n'), max_size=6)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=4,
)


def record_rows(tag, cells):
    width = len(RECORDS[tag])
    return st.lists(cells, min_size=width, max_size=width).map(tuple)


@pytest.mark.parametrize("tag", list(RECORDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_writer_matches_the_reference_renderer(tag, data):
    """The `_EXACT` tags' rows, always exact ints, fill the template as they
    are; any other tag's row is rendered cell by cell, so a bool, None, a
    string, a list or an IntEnum member anywhere in it is rendered as the
    encoder does.  A draw of up to 150 rows, handed over in gen-f's batches
    of 64, spans up to three batches, and its other rows fall in the same
    batch as an exact-int run or next to one."""
    # exact-int rows, their cells cycled from a few small ints (big ones come
    # in the other rows)
    width, pool = len(RECORDS[tag]), data.draw(st.lists(SMALL, min_size=1, max_size=12))
    cells = itertools.cycle(pool)
    rows = [tuple(itertools.islice(cells, width)) for _ in range(data.draw(st.integers(0, 150)))]
    other = record_rows(tag, INTS)
    if tag not in cli._EXACT:
        other |= record_rows(tag, INT_LIKE) | record_rows(tag, CELLS)
    for at, row in data.draw(st.lists(st.tuples(st.integers(0, 150), other), max_size=4)):
        rows.insert(at, row)
    meta = data.draw(
        st.lists(
            st.sampled_from(list(RECORDS)).flatmap(
                lambda t: st.tuples(st.just(t), record_rows(t, CELLS))
            ),
            max_size=2,
        )
    )
    for fmt in ("csv", "json"):
        out = io.StringIO()
        write_records(fmt, out, tag, cli._in_64s(rows), meta=meta, comments=["a comment"])
        if fmt == "json":
            want = [reference_line(fmt, t, v) for t, v in [*meta, *((tag, v) for v in rows)]]
        else:
            head = ["# a comment\n", ",".join(RECORDS[tag]) + "\n"]
            want = head + [reference_line(fmt, tag, v) for v in rows]
        assert out.getvalue() == "".join(want)


class CountingStream(io.StringIO):
    """A text stream that keeps every string written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def batch_writes(fmt, rows, meta):
    """The strings `write_records` writes for density rows, by the reference
    renderer: one per batch of 64 rows, the head in the first."""
    head = io.StringIO()
    write_records(fmt, head, "density_row", [], meta=meta, comments=["c"])
    batches = [rows[at : at + 64] for at in range(0, len(rows), 64)] or [[]]
    writes = ["".join(reference_line(fmt, "density_row", v) for v in batch) for batch in batches]
    writes[0] = head.getvalue() + writes[0]
    return writes


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 128, 129, 200])
def test_writer_writes_once_per_batch_of_64_rows(fmt, count):
    """One write per batch handed over: ceil(count / 64) writes for rows in
    gen-f's batches of 64, the head in the first; with no rows the head goes
    out alone.  Row 70 holds None, rendered cell by cell."""
    rows = [(i, i, i, i, None if i == 70 else i) for i in range(count)]
    meta = [("g_class", (9, "odd-square", 3))]
    out = CountingStream()
    write_records(fmt, out, "density_row", cli._in_64s(rows), meta=meta, comments=["c"])
    assert len(out.writes) == max(1, math.ceil(count / 64))
    assert out.writes == batch_writes(fmt, rows, meta)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_writes_nothing_before_the_first_row(fmt):
    """A row that raises ends the run with only the full batches of 64
    before it written: no write at all when it is in the first."""

    def rows(good):
        yield from ((i,) * 5 for i in range(good))
        raise ValueError("refused")

    for good, batches in ((0, 0), (63, 0), (64, 1), (150, 2)):
        out = CountingStream()
        with pytest.raises(ValueError, match="refused"):
            write_records(fmt, out, "density_row", cli._in_64s(rows(good)), meta=[], comments=["c"])
        want = batch_writes(fmt, [(i,) * 5 for i in range(64 * batches)], [])
        assert out.writes == (want if batches else [])


def test_exact_tags_hand_over_exact_ints(monkeypatch, capsys):
    """gen-g and gen-f hand the writer rows of exact ints only, which it
    writes as they are: no bool, None or int subclass reaches an `_EXACT`
    tag's template."""
    seen = []
    write = cli.write_records

    def spy(fmt, out, tag, batches, **kwargs):
        batches = list(batches)
        seen.append((tag, {type(v) for batch in batches for row in batch for v in row}))
        return write(fmt, out, tag, batches, **kwargs)

    monkeypatch.setattr(cli, "write_records", spy)
    for argv in ("gen-g --g 9 --count 130", f"gen-g --g {2 * 15015**2} --count 70",
                 "gen-f --f 7 --m -3..3", "gen-f --f 1 --m 0..70 --format json"):
        assert main(argv.split()) == 0
    capsys.readouterr()
    assert seen == [("g_family_item", {int})] * 2 + [("f_triple", {int})] * 2


class TestGenF:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "gen-f", "--f", "7", "--m", "0..1")
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows[0] == "a,b,c,m,sign,u_x,u_y"
        assert "8,15,17,0,1,3,1" in rows
        assert "65,72,97,1,1,3,1" in rows

    def test_f1(self, capsys):
        code, out, _ = run(capsys, "gen-f", "--f", "1", "--m", "1..2")
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows[1:] == ["3,4,5,1,1,1,0", "20,21,29,2,1,1,0"]

    def test_sorted_by_triple(self, capsys):
        code, out, _ = run(capsys, "gen-f", "--f", "7", "--m", "-6..6")
        triples = [
            tuple(int(v) for v in line.split(",")[:3])
            for line in out.splitlines()
            if line and not line.startswith("#") and not line.startswith("a,")
        ]
        assert triples == sorted(triples)

    def test_inadmissible_exits_2(self, capsys):
        code, _, err = run(capsys, "gen-f", "--f", "3", "--m", "0..1")
        assert code == 2 and "3 is 3 mod 8" in err

    def test_out_of_range_exits_3(self, capsys):
        code, _, err = run(capsys, "gen-f", "--f", str(2**64 + 1), "--m", "0..1")
        assert code == 3 and "2**64" in err

    def test_bad_range_exits_1(self):
        # the range is refused while parsing, before f is factored or judged
        for f, m in (("7", "3..1"), ("3", "2..1"), ("18446744073709551629", "2..1")):
            assert main(["gen-f", "--f", f, "--m", m]) == 1

    def test_split_prime_below_2_64(self, capsys):
        # the norm-p generator of a prime this size was once out of reach
        f = 18446744073709551521
        code, out, err = run(capsys, "gen-f", "--f", str(f), "--m", "0..0", "--format", "json")
        assert (code, err) == (0, "")
        records = validate_jsonl(out)
        spec = admissible_f(f)
        elements = [QuadInt(r["u_x"], r["u_y"]) for r in records if r["record"] == "cf_element"]
        assert elements and all(abs(u.norm) == f for u in elements)
        rows = [r for r in records if r["record"] == "f_triple"]
        assert rows
        for r in rows:
            assert r["sign"] == 1
            u = QuadInt(r["u_x"], r["u_y"])
            ft = FTriple(Triple(r["a"], r["b"], r["c"]), r["m"], CfElement(u, (0,)))
            assert oracles.verify_f_triple(ft, spec)

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "gen-f", "--f", "7", "--m", "0..1", "--format", "json")
        assert code == 0
        records = validate_jsonl(out)
        kinds = [r["record"] for r in records]
        assert kinds[0] == "f_spec" and kinds.count("cf_element") == 2


class TestCheck:
    def test_ppt(self, capsys):
        code, out, _ = run(capsys, "check", "15", "8", "17")
        assert code == 0
        header, row = out.splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["r"] == "4" and record["s"] == "1"
        assert record["g"] == "9" and record["g_m"] == "3" and record["g_n"] == "2"
        assert record["f"] == "7"

    def test_not_primitive_exits_4(self, capsys):
        code, out, _ = run(capsys, "check", "6", "8", "10")
        assert code == 4
        header, row = out.splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["pythagorean"] == "true" and record["primitive"] == "false"
        assert record["r"] == ""

    def test_not_pythagorean_exits_4(self, capsys):
        code, out, _ = run(capsys, "check", "1", "2", "3")
        assert code == 4
        assert "false" in out

    def test_nonpositive_exits_1(self):
        assert main(["check", "0", "4", "5"]) == 1

    @pytest.mark.parametrize(
        "t", [(15, 8, 17), (8, 15, 17), (20, 21, 29), (21, 20, 29), (119, 120, 169)]
    )
    def test_one_parameter_pair_per_record(self, t, capsys, monkeypatch):
        calls = []

        def counted(triple):
            calls.append(triple)
            return to_params(triple)

        to_params = triples.to_params
        monkeypatch.setattr(triples, "to_params", counted)
        monkeypatch.setattr(hyp_gap, "to_params", counted)
        code, out, _ = run(capsys, "check", *map(str, t), "--format", "json")
        (record,) = validate_jsonl(out)
        assert code == 0 and len(calls) == 1
        assert (record["r"], record["s"]) == to_params(Triple(*t))

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "15", "8", "17", "--format", "json")
        assert code == 0
        (record,) = validate_jsonl(out)
        assert record["g_kind"] == "odd-square" and record["g_n"] == 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 10**30 - 1),
        st.integers(0, 10**30 // 2),
        st.sampled_from((1, 2, 3)) | st.integers(4, 10**6),
    )
    @example(s=1, half=0, k=9)  # (27, 36, 45): its halves 36 and 9 are squares
    def test_record_names_the_gen_g_row_of_its_triple(self, s, half, k):
        """The record's pair arithmetic and `hyp_gap._rows` agree: the gen-g
        member at the record's (g, g_n) is its (r, s, a, b, c), in both leg
        orders, an even b (an odd-square gap) and an odd b (twice a square).
        The k-fold multiple of that triple, k >= 2, is Pythagorean but not
        primitive: exit 4 with the leg facts filled and the pair fields empty."""
        r = s + 2 * half + 1  # opposite parity to s
        assume(r <= 10**30 and math.gcd(r, s) == 1)
        odd, even, c = k * (r * r - s * s), k * 2 * r * s, k * (r * r + s * s)
        for (a, b), leg in (((odd, even), "b"), ((even, odd), "a")):
            record, code = cli._check_record(a, b, c)
            if k > 1:
                assert (code, record["pythagorean"], record["primitive"]) == (4, True, False)
                assert record["even_leg"] == (leg if k % 2 else "both")
                assert record["f"] == abs(b - a)
                assert [record[key] for key in ("r", "s", "g", "g_kind", "g_m", "g_n")] == [None] * 6
                continue
            assert code == 0 and record["primitive"] and record["even_leg"] == leg
            assert record["g"] == c - b
            gc = hyp_gap.classify_g(record["g"])
            assert (gc.kind.value, gc.m) == (record["g_kind"], record["g_m"])
            item = hyp_gap.family_member(gc, record["g_n"])
            assert item is not None
            assert (item.r, item.s, item.a, item.b, item.c) == tuple(record[key] for key in "rsabc")


class TestDensity:
    def test_go_row(self, capsys):
        code, out, _ = run(capsys, "density", "--family", "GO", "--grid", "10")
        assert code == 0
        assert out.splitlines() == [
            "B,family_count,pool_count,ratio,predicted",
            "10,9,31,0.290323,0.333333",
        ]

    def test_geo_row(self, capsys):
        code, out, _ = run(capsys, "density", "--family", "GEO", "--grid", "10")
        assert out.splitlines()[1].split(",")[1] == "13"

    def test_g1_small_ratio(self, capsys):
        code, out, _ = run(capsys, "density", "--family", "G1", "--grid", "100000")
        ratio = float(out.splitlines()[1].split(",")[3])
        assert code == 0 and ratio < 0.0001

    def test_budget_exits_5(self, capsys, monkeypatch):
        monkeypatch.setenv("PPT_SIEVE_BUDGET", "100")
        code, _, err = run(capsys, "density", "--family", "GO", "--grid", "100000")
        assert code == 5 and "budget" in err

    def test_bad_grid_exits_1(self, tmp_path):
        for grid in ("10,5", "1,10", "x"):
            assert main(["density", "--family", "GO", "--grid", grid]) == 1
        # the grid is refused while parsing, before --out is opened
        path = tmp_path / "rows.csv"
        path.write_bytes(b"kept\n")
        assert main(["density", "--family", "GO", "--grid", "5,3", "--out", str(path)]) == 1
        assert path.read_bytes() == b"kept\n"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "density", "--family", "GO", "--grid", "10,100", "--out", str(path))
        assert code == 0 and out == ""
        data = path.read_bytes()
        assert data.startswith(b"B,family_count") and b"\r" not in data

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "rows.csv"
        code, out, err = run(capsys, "density", "--family", "GO", "--grid", "10", "--out", str(path))
        assert (code, out) == (1, "")
        assert "--out" in err and "Traceback" not in err

    def test_unwritable_out_is_refused_before_the_sieve(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        start = time.perf_counter()
        code, out, _ = run(capsys, "density", "--family", "GO", "--grid", "2000000", "--out", str(path))
        assert time.perf_counter() - start < 0.2
        assert (code, out) == (1, "")

    def test_refusal_after_open_leaves_out_empty(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("PPT_SIEVE_BUDGET", "100")
        path = tmp_path / "rows.csv"
        path.write_text("older rows\n")
        code, out, _ = run(capsys, "density", "--family", "GO", "--grid", "100000", "--out", str(path))
        assert (code, out, path.read_bytes()) == (5, "", b"")

    def test_rows_go_out_before_the_largest_sums(self, monkeypatch):
        """One write per row, each as it is counted: the header and the rows
        for 10 and 100 are out before S is first asked for 10**6."""
        out, before = CountingStream(), []
        S = density.TotientSums.S

        def spy(self, x):
            if x == 10**6 and not before:
                before.append(list(out.writes))
            return S(self, x)

        monkeypatch.setattr(density.TotientSums, "S", spy)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["density", "--family", "GO", "--grid", "10,100,1000000"]) == 0
        assert before == [[
            "B,family_count,pool_count,ratio,predicted\n10,9,31,0.290323,0.333333\n",
            "100,1003,3043,0.329609,0.333333\n",
        ]]
        assert out.writes == [*before[0], "1000000,101321066616,303963552391,0.333333,0.333333\n"]

    def test_a_reader_that_stops_spares_the_largest_sums(self, monkeypatch):
        class Closing(CountingStream):  # the reader goes away after the first write
            def write(self, text):
                if self.writes:
                    raise BrokenPipeError
                return super().write(text)

        asked = []
        S = density.TotientSums.S
        monkeypatch.setattr(density.TotientSums, "S", lambda self, x: asked.append(x) or S(self, x))
        monkeypatch.setattr(sys, "stdout", Closing())
        with pytest.raises(BrokenPipeError):
            main(["density", "--family", "GO", "--grid", "10,100,1000000"])
        assert 100 in asked and 10**6 not in asked

    def test_json(self, capsys):
        code, out, _ = run(capsys, "density", "--family", "GO", "--grid", "10", "--format", "json")
        (record,) = validate_jsonl(out)
        assert record["ratio"] == "0.290323"


class TestVerify:
    def test_pell(self, capsys):
        code, out, _ = run(capsys, "verify", "pell", "--m-max", "20")
        assert code == 0
        assert out.splitlines()[-1] == "PASS pell"

    def test_density_cross(self, capsys):
        code, out, _ = run(capsys, "verify", "density-cross", "--b-max", "150")
        assert code == 0 and "0 failures" in out

    def test_g_coverage(self, capsys):
        code, out, _ = run(capsys, "verify", "g-coverage", "--c-max", "2000")
        assert code == 0 and "PASS g-coverage" in out

    def test_f_coverage(self, capsys):
        code, out, _ = run(capsys, "verify", "f-coverage", "--c-max", "20000")
        assert code == 0

    def test_f_coverage_window_grows_with_the_bound(self, capsys):
        # (5406093003, 5406093004, 7645370045), an f = 1 triple reached
        # only at m = 13 and m = -14, is missed by any exponent range fixed
        # at m in [-12, 12]; the stream read up to the bound reaches it
        code, out, _ = run(capsys, "verify", "f-coverage", "--c-max", "10000000000")
        assert code == 0
        assert out.splitlines() == ["f-coverage: 60 checks, 0 failures", "PASS f-coverage"]

    def test_nonexistence(self, capsys):
        code, out, _ = run(capsys, "verify", "nonexistence", "--c-max", "20000")
        assert code == 0

    def test_foreign_bound_flag_exits_1(self, capsys):
        code, out, err = run(capsys, "verify", "pell", "--c-max", "3")
        assert (code, out) == (1, "")
        assert "--m-max" in err and "--c-max" in err
        code, out, _ = run(capsys, "verify", "density-cross", "--b-max", "10", "--m-max", "5")
        assert (code, out) == (1, "")

    def test_unknown_scope_exits_1(self):
        assert main(["verify", "everything"]) == 1


# (argv, environment, exit code); {missing} is a directory that does not exist
REFUSALS = [
    ("gen-g --g 3", {}, 2),
    ("gen-f --f 3 --m 0..1", {}, 2),
    ("gen-f --f 18446744073709551629 --m 0..0", {}, 3),
    ("verify pell --c-max 3", {}, 1),
    ("density --family GO --grid 100000", {"PPT_SIEVE_BUDGET": "100"}, 5),
    ("density --family GO --grid 1000", {"PPT_SIEVE_BUDGET": "abc"}, 1),
    ("density --family GO --grid 10", {"PPT_SIEVE_BUDGET": "1_0"}, 1),
    ("density --family GO --grid 10", {"PPT_SIEVE_BUDGET": "\u0663\u0660"}, 1),
    ("verify density-cross --b-max 20000000", {}, 5),
    ("verify density-cross --b-max 10", {"PPT_SIEVE_BUDGET": "abc"}, 1),
    ("density --family GO --grid 10 --out {missing}/rows.csv", {}, 1),
]


@pytest.mark.parametrize(
    "argv,env,code",
    REFUSALS,
    ids=[" ".join([*map("=".join, env.items()), argv]) for argv, env, _ in REFUSALS],
)
def test_refusal_is_one_stderr_line(argv, env, code, capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("PPT_SIEVE_BUDGET", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    got, out, err = run(capsys, *argv.replace("{missing}", str(tmp_path / "missing")).split())
    assert (got, out) == (code, "")
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_memory_error_exits_5_with_one_stderr_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_check", exhausted)
    assert run(capsys, "check", "3", "4", "5") == (5, "", "out of memory\n")


# every argv position that reads a number, {} marking it
NUMBER_POSITIONS = [
    "gen-g --g {} --count 2",
    "gen-g --g 9 --count {}",
    "gen-f --f {} --m 0..1",
    "gen-f --f 7 --m {}",
    "gen-f --f 7 --m {}..9",
    "gen-f --f 7 --m 0..{}",
    "check {} 4 5",
    "check 3 {} 5",
    "check 3 4 {}",
    "density --family GO --grid {}",
    "density --family GO --grid 2,{}",
    "verify g-coverage --c-max {}",
    "verify pell --m-max {}",
    "verify density-cross --b-max {}",
]
# forms that int() alone would read (or that look like a flag), and ASCII
# spellings of the same values that the grammar -?[0-9]+ takes
MALFORMED_NUMBERS = ["1_0", " 3", "\u0663", "+5", "", "--5"]


@pytest.mark.parametrize("text", MALFORMED_NUMBERS, ids=repr)
@pytest.mark.parametrize("position", NUMBER_POSITIONS)
def test_one_number_grammar_in_every_position(position, text, capsys):
    argv = [part.replace("{}", text) for part in position.split(" ")]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert "error:" in err and "Traceback" not in err
    parts = position.split(" ")
    at = next(i for i, part in enumerate(parts) if "{}" in part)
    # a flag's value is the next token whatever it starts with; a positional
    # starting with `-` reads as an unknown flag
    if parts[at - 1].startswith("--") or not parts[at].replace("{}", text).startswith("-"):
        assert f"not an integer: {text!r}" in err


@pytest.mark.parametrize("position", NUMBER_POSITIONS)
def test_the_grammar_takes_ascii_digits_with_a_minus(position):
    args = parse_args(position.replace("{}", "0007").split(" "))
    values = [x for v in vars(args).values() for x in (v if isinstance(v, (list, tuple)) else [v])]
    assert 7 in values
    assert parse_args(["gen-f", "--f", "7", "--m", "-0..-0"]).m == (0, 0)


# texts tried in every argument position: the malformed forms above, values
# out of range or of the wrong kind, and a few that some arguments take
ARGUMENT_TEXTS = [
    "0", "-1", str(2**63), str(2**64 - 1), str(2**64 + 1), str(10**30), "1_0", "\u0663",
    "+5", "", "--5", "3..1", "5..", "10,5", "xml", "7", "-3..3", "10,100", "json", "GO",
]
UNKNOWN_FLAGS = ["--cou", "--nope", "-x", "--", "--format-x", "--c_max"]


def parsed(parse, text):
    """(True, value) if an argument with this parse takes `text`, else (False, None)."""
    if isinstance(parse, tuple):
        return text in parse, text
    try:
        return True, parse(text)
    except UsageError:
        return False, None


@st.composite
def command_lines(draw):
    """(argv, the expected namespace or None for a refusal), drawn from
    `COMMANDS`: each argument given 0-2 times, flags in both forms, all in
    any order, with perhaps an unknown flag or a flag missing its value."""
    command = draw(st.sampled_from(list(COMMANDS)))
    spec = COMMANDS[command][2]
    items = []  # (flag name or None for a positional, text, tokens)
    rare = st.integers(0, 3).map(lambda n: n == 0)
    for name, (parse, _, _) in spec.items():
        texts = ARGUMENT_TEXTS + list(parse if isinstance(parse, tuple) else ())
        taken = [text for text in texts if parsed(parse, text)[0]]
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            text = draw(st.sampled_from(texts if draw(rare) else taken))
            if not name.startswith("-"):
                items.append((None, text, [text]))
            elif draw(st.booleans()):
                items.append((name, text, [f"{name}={text}"]))
            else:
                items.append((name, text, [name, text]))
    items = draw(st.permutations(items))
    unknown = [draw(st.sampled_from(UNKNOWN_FLAGS))] if draw(rare) else []
    dangling = [draw(st.sampled_from([n for n in spec if n.startswith("-")]))] if draw(rare) else []
    argv = [command, *(token for _, _, tokens in items for token in tokens)]
    cut = draw(st.integers(1, len(argv)))  # where the unknown flag goes
    argv = argv[:cut] + unknown + argv[cut:] + dangling

    positionals = [n for n in spec if not n.startswith("-")]
    given = {}
    ok = not unknown and not dangling
    for name, text, _ in items:
        if name is None:  # the next positional, unless it reads as a flag
            if text.startswith("-") or not positionals:
                ok = False
                continue
            name = positionals.pop(0)
        taken, given[name] = parsed(spec[name][0], text)
        ok = ok and taken
    ok = ok and all(n in given for n, (_, d, _) in spec.items() if d is cli._REQUIRED)
    if not ok:
        return argv, None
    expected = {"command": command, "help": False}
    for name, (_, default, _) in spec.items():
        expected[name.lstrip("-").replace("-", "_")] = given.get(name, default)
    return argv, expected


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_parse_args_reads_the_grammar_of_commands(case):
    """`parse_args` returns each argument's parse of its last text, or
    raises UsageError; a refused argv makes `main` exit 1 with one `error:`
    line after the usage line, and nothing on stdout.  No handler runs."""
    argv, expected = case
    if expected is not None:
        assert vars(parse_args(argv)) == expected
        return
    with pytest.raises(UsageError):
        parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert out.getvalue() == ""
    usage, error = err.getvalue().splitlines()
    assert usage.startswith(f"usage: pptriples {argv[0]} ")
    assert error.startswith(f"pptriples {argv[0]}: error: ")


# number texts at the edges of the grammar.  The huge ones parse, so no count,
# exponent span or verify bound takes them: those inputs have no work limit.
SMALL_EDGE_TEXTS = ["0", "-1", "1_0", " 5", "+5", "\u0663", "", "1..", "3..1", "2,2", ","]
EDGE_TEXTS = [str(2**63), str(2**64 - 1), str(2**64 + 1), str(10**30), *SMALL_EDGE_TEXTS]
_UNBOUNDED = ("--count", "--m", "--c-max", "--m-max", "--b-max")


@st.composite
def bounded_requests(draw):
    """An argv drawn from `COMMANDS` whose work is bounded: each argument
    given once (seldom not at all), as `--name value` or `--name=value`, in
    any order (positionals in table order), its text a value in bounds or
    (seldom) an edge text.  A `verify` scope gets its own bound.  An --out
    path is `{out}/` and a name.  `check` takes a k-fold triple, k <= 3, or
    three small numbers."""
    command = draw(st.sampled_from(list(COMMANDS)))
    spec = COMMANDS[command][2]
    seldom = st.integers(0, 7).map(lambda n: n == 0)
    s, k = draw(st.integers(1, 30)), draw(st.integers(1, 3))
    r = s + 2 * draw(st.integers(0, 15)) + 1  # opposite parity to s
    sides = [k * (r * r - s * s), 2 * k * r * s, k * (r * r + s * s)]
    if draw(st.booleans()):
        sides[:2] = sides[1::-1]
    if draw(seldom):
        sides = draw(st.lists(st.integers(1, 100), min_size=3, max_size=3))

    def ints(lo, hi):
        return st.integers(lo, hi).map(str)

    in_bounds = {
        **{name: st.just(str(side)) for name, side in zip("abc", sides)},
        "--g": ints(1, 10**4) | st.integers(1, 100).flatmap(
            lambda m: st.sampled_from([str(m * m), str(2 * m * m)])),
        "--count": ints(1, 300),
        "--f": ints(1, 10**4) | st.sampled_from(["1", "7", "17", "23", "49", "119", "2737"]),
        "--m": ints(-40, 40) | st.lists(st.integers(-40, 40), min_size=2, max_size=2).map(
            lambda span: "{}..{}".format(*sorted(span))),
        "--grid": st.lists(st.integers(2, 10**4), min_size=1, max_size=3, unique=True).map(
            lambda bounds: ",".join(map(str, sorted(bounds)))),
        "--out": st.sampled_from(["rows.csv", "missing/rows.csv"]),
        "--c-max": ints(1, 5000),
        "--m-max": ints(1, 20),
        "--b-max": ints(1, 200),
    }
    scope = draw(st.sampled_from(list(VERIFY)))
    own = {"scope", "--" + VERIFY[scope][1].replace("_", "-")} if command == "verify" else set(spec)
    items = []
    for name, (parse, _, _) in spec.items():
        if draw(seldom) == (name in own):  # own ones seldom left out, others seldom given
            continue
        if draw(seldom):
            text = draw(st.sampled_from(SMALL_EDGE_TEXTS if name in _UNBOUNDED else EDGE_TEXTS))
        elif name == "scope":
            text = scope
        else:
            text = draw(st.sampled_from(parse) if isinstance(parse, tuple) else in_bounds[name])
        if name == "--out":
            text = "{out}/" + text
        if not name.startswith("-"):
            items.append((name, [text]))
        else:
            items.append((name, [f"{name}={text}"] if draw(st.booleans()) else [name, text]))
    # the flags in any order, the positionals in table order
    positionals = iter([tokens for name, tokens in items if not name.startswith("-")])
    argv = [command]
    for name, tokens in draw(st.permutations(items)):
        argv += tokens if name.startswith("-") else next(positionals)
    return argv


@settings(max_examples=300, deadline=None)
@given(bounded_requests())
def test_main_ends_every_bounded_request_with_a_documented_code(argv):
    """The handlers' half of the argv fuzz: `main`, run in-process, returns
    a documented exit code (0 to 6) and raises nothing, with stderr empty
    exactly on 0, 4 (not a PPT) and 6 (a violation).  Only requests whose
    work is bounded are drawn: a small --count, exponent span and verify
    bound.  Any grid is drawn, because the sieve budget refuses big ones."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{out}", tmp) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(7)
    assert (err.getvalue() == "") == (code in (0, 4, 6))


@contextlib.contextmanager
def digit_limit(n):
    """Python's int/str digit limit set to n (0 lifts it) inside the block;
    a no-op before Python 3.11, which has no limit."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    saved = get()
    sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestBigIntegers:
    """Decimal strings of any length, beyond Python's default 4300 digits."""

    def test_gen_f_row_past_the_digit_limit(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "gen-f", "--f", "1", "--m", "6000..6000")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        *_, row = out.splitlines()
        assert len(row.split(",")[2]) > 4300
        with digit_limit(0):
            a, b, c, m, sign, u_x, u_y = map(int, row.split(","))
        assert a * a + b * b == c * c and b - a == 1
        assert (m, sign, u_x, u_y) == (6000, 1, 1, 0)

    def test_check_5000_digit_hypotenuse(self, capsys):
        r, s = 10**2500, 10**2500 - 1
        with digit_limit(0):
            argv = [str(r * r - s * s), str(2 * r * s), str(r * r + s * s)]
        assert len(argv[2]) > 5000
        start = time.perf_counter()
        code, out, err = run(capsys, "check", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        header, row = out.splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert [record[k] for k in ("a", "b", "c")] == argv
        assert record["primitive"] == "true" and record["g"] == "1"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit before Python 3.11"
    )
    def test_caller_limit_is_restored(self, capsys):
        with digit_limit(5000):
            assert run(capsys, "check", "3", "4", "5")[0] == 0
            assert sys.get_int_max_str_digits() == 5000
            assert main(["check", "0", "4", "5"]) == 1
            assert sys.get_int_max_str_digits() == 5000


def run_io(*argv):
    """main(argv) with stdout captured, for tests that cannot take capsys."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestHugeInputs:
    """Inputs of about 3*10**4 digits give the right record and exit code.

    At 10**5 digits CPython's quadratic int/str conversion alone takes about
    0.7 s per triple (README, Limits), so these stay near 3*10**4."""

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 3, 5, 7, 9, 11]))
    def test_check_triple_of_30000_digits(self, offset, d):
        s = 10**15000 + offset
        assume(math.gcd(s, d) == 1)
        r = s + d  # coprime, opposite parity: a primitive pair
        a, b, c = r * r - s * s, 2 * r * s, r * r + s * s
        with digit_limit(0):
            argv = list(map(str, (a, b, c)))
            code, out = run_io("check", *argv)
            header, row = out.splitlines()
            record = dict(zip(header.split(","), row.split(",")))
            want = {
                "a": a, "b": b, "c": c, "pythagorean": "true", "primitive": "true",
                "even_leg": "b", "r": r, "s": s, "g": d * d, "g_kind": "odd-square",
                "g_m": d, "g_n": (r + s - 1) // 2, "f": abs(a - b),
            }
            assert len(argv[2]) >= 30000
            assert (code, record) == (0, {k: str(v) for k, v in want.items()})

    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([(1, 1), (2, 1), (2, 0)]))
    def test_gen_g_on_a_root_of_30000_digits(self, shift, kind):
        leg, parity = kind  # g = leg * m * m with m of this parity
        m = 10**30000 + shift
        m += (m - parity) % 2
        g = leg * m * m
        with digit_limit(0):
            code, out = run_io("gen-g", "--g", str(g), "--count", "2")
            items = [list(map(int, line.split(","))) for line in out.splitlines()[2:]]
        assert code == 0 and len(items) == 2
        ns = [item[0] for item in items]
        assert ns == sorted(set(ns)) and 0 < items[0][1] - m <= 2  # the first k above m
        for n, k, r, s, a, b, c, stride, offset in items:
            assert a * a + b * b == c * c and c - b == g and math.gcd(a, b) == 1
            assert a == stride * n + offset


def test_determinism(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "gen-f", "--f", "17", "--m", "-4..4")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def child_env():
    """The environment of a child that imports the same package as this
    test, installed or not."""
    src = str(Path(pptriples.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "pptriples", "check", "3", "4", "5"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("3,4,5,true,true")


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_is_utf8_with_lf_whatever_the_locale(encoding):
    """The `generators:` comment holds a `√`, which neither encoding has."""
    proc = subprocess.run(
        [sys.executable, "-m", "pptriples", "gen-f", "--f", "7", "--m", "-3..3"],
        capture_output=True, env={**child_env(), "PYTHONIOENCODING": encoding},
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "e95a372f4190dfda800f9b71bba5ef4b5fe1becb3ed6c610c7cf8c5ee085fb72"  # test_golden.py's
    )


def test_help_goes_to_stdout_and_loads_no_layer():
    probe = (
        "import contextlib, io, sys, pptriples.cli\n"
        "for argv in (['-h'], ['gen-g', '--help']):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = pptriples.cli.main(argv)\n"
        "    print(repr((code, out.getvalue(), err.getvalue())))\n"
        "print(sorted(m for m in sys.modules if m.startswith('pptriples.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(), check=True
    )
    top, gen_g, modules = map(ast.literal_eval, proc.stdout.splitlines())
    assert (top[0], top[2], gen_g[0], gen_g[2]) == (0, "", 0, "")
    assert all(f"\n  {name} " in top[1] for name in COMMANDS)
    assert gen_g[1].startswith("usage: pptriples gen-g [-h] --g G [--count COUNT]")
    assert modules == ["pptriples._primes", "pptriples.cli"]  # the refusal types, as at import


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_starts_with_the_usage_line_of_a_refusal(command, capsys):
    argv = [command] if command else []
    assert main([*argv, "-h"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert main([*argv, "--no-such-flag"]) == 1
    assert capsys.readouterr().err.splitlines()[0] == out.splitlines()[0]


def test_reader_closing_stdout_early_ends_the_run_quietly():
    # about 1 MB of rows: the child is still writing when the pipe closes
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pptriples", "gen-g", "--g", "9", "--count", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=5), err) == (0, b"")
    assert first == b"# g=9 kind=odd-square m=3\n"
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-g", "--g", "9", "--count", "1000000000"],
        ["gen-g", "--g", "9", "--count", str(10**30)],
        ["gen-f", "--f", "1", "--m", "-20000..20000"],
    ],
    ids=" ".join,
)
def test_generators_stream_to_a_reader_that_stops_early(argv):
    # building every record first would exhaust memory or time before line 3;
    # the watchdog ends such a child, and its exit code fails the test
    proc = subprocess.Popen(
        [sys.executable, "-m", "pptriples", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    watchdog = threading.Timer(10, proc.kill)
    watchdog.start()
    try:
        lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        code = proc.wait()
        err = proc.stderr.read()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert (code, err) == (0, b"")
    assert all(line.endswith(b"\n") for line in lines)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["gen-g", "--g", "3", "--count", "1000000000"], 2),
        (["gen-f", "--f", "3", "--m", "-20000..20000"], 2),
        (["gen-f", "--f", "7", "--m", "2..1"], 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_streaming_refusals_write_no_stdout(argv, code):
    proc = subprocess.run(
        [sys.executable, "-m", "pptriples", *argv],
        capture_output=True,
        env=child_env(),
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (code, b"")
    assert proc.stderr and b"Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stdout", ["/dev/full", "closed"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen-g", "--g", "9", "--count", "5"],
        ["density", "--family", "GO", "--grid", "10,100"],
        ["check", "3", "4", "5"],
        ["verify", "pell", "--m-max", "5"],
    ],
    ids=" ".join,
)
def test_unwritable_stdout_is_one_stderr_line(argv, stdout, unbuffered):
    """A stdout that takes no bytes (`> /dev/full`) or is closed (`>&-`)
    exits 1 with one line, whether the write or the flush at exit fails."""
    env = {**child_env(), "PYTHONUNBUFFERED": unbuffered}
    with open(os.devnull if stdout == "closed" else stdout, "wb") as sink:
        proc = subprocess.run(
            [sys.executable, "-m", "pptriples", *argv],
            stdout=sink,
            stderr=subprocess.PIPE,
            env=env,
            timeout=30,
            preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None,
        )
    err = proc.stderr.decode()
    reason = "it is closed" if stdout == "closed" else "[Errno 28] No space left on device"
    assert (proc.returncode, err) == (1, f"cannot write stdout: {reason}\n")


def test_interrupt_ends_the_run_quietly_with_130():
    proc = subprocess.Popen(
        [sys.executable, "-m", "pptriples", "verify", "g-coverage", "--c-max", "100000000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        # a parent that ignores SIGINT (a shell's background job) passes the
        # ignore on, and Python then installs no handler
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        time.sleep(0.6)  # past start-up, inside the enumeration
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert b"Traceback" not in err


_WITHOUT_STDERR = pytest.mark.parametrize("argv,digest,code", [
    ("gen-g --g 9 --count 5", "efb10c96fa52435570f9ff87afc74a5790fd262a2501804958734e0daf89a1f2", 0),
    ("gen-g --g 3", None, 2),
])


def _run_without_stderr(argv, digest, code, preexec_fn):
    """Run argv in a child whose fd 2 `preexec_fn` has taken away: stdout
    must be flushed, the refusal line dropped, never written to stdout, and
    the process must end with the command's code."""
    proc = subprocess.run(
        [sys.executable, "-m", "pptriples", *argv.split()],
        stdout=subprocess.PIPE,
        env=child_env(),
        timeout=30,
        preexec_fn=preexec_fn,
    )
    assert proc.returncode == code
    if digest is None:
        assert proc.stdout == b""
    else:  # test_golden.py's
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


@_WITHOUT_STDERR
def test_closed_stderr_ends_the_run_with_its_code(argv, digest, code):
    """With fd 2 closed (`2>&-`) Python sets no stderr, where print() would
    write to stdout."""
    _run_without_stderr(argv, digest, code, lambda: os.close(2))


def _read_only_stderr():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(fd, 2)
    os.close(fd)


@_WITHOUT_STDERR
def test_read_only_stderr_ends_the_run_with_its_code(argv, digest, code):
    """With fd 2 open but not writable (`2</dev/null`) Python sets a stderr
    whose writes raise EBADF, which is not stdout's failure."""
    _run_without_stderr(argv, digest, code, _read_only_stderr)


def test_stderr_is_written_only_through_its_helper():
    """Every stderr line in the CLI goes through `cli._to_stderr`, which
    drops the line when stderr is missing or unwritable: a direct print or
    write would put a refusal on stdout under `2>&-`, and raise out of
    `main` under `2</dev/null`."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))

    def writes(node):
        return [
            ast.unparse(call) for call in ast.walk(node) if isinstance(call, ast.Call) and (
                isinstance(call.func, ast.Attribute) and call.func.attr in ("write", "writelines")
                and ast.unparse(call.func.value) in ("sys.stderr", "sys.__stderr__")
                or any(kw.arg == "file" and ast.unparse(kw.value) in ("sys.stderr", "sys.__stderr__")
                       for kw in call.keywords))
        ]

    (helper,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_to_stderr"]
    assert writes(helper) == ["print(line, file=sys.stderr)"]
    assert writes(tree) == writes(helper)


class Exited(Exception):
    """Raised by the stand-in for `os._exit`, so the test process lives on."""


@pytest.fixture
def exit_log(monkeypatch):
    """The log of stream flushes and of the `os._exit` call, whose stand-in
    raises Exited."""
    log = []

    def exit_(status):
        log.append(f"_exit({status})")
        raise Exited

    monkeypatch.setattr("pptriples.cli.os._exit", exit_)
    return log


class LoggedStream(io.StringIO):
    """A text stream that logs each flush, and raises `error` from it: the
    point where a buffered stdout meets a full disk or a closed pipe."""

    def __init__(self, name, log, error=None):
        super().__init__()
        self.label, self.log, self.error = name, log, error

    def reconfigure(self, **kwargs):
        pass

    def flush(self):
        self.log.append(f"{self.label}.flush")
        if self.error is not None:
            raise self.error


def _interrupted():
    print("partial")
    raise KeyboardInterrupt


@pytest.mark.parametrize("argv,error,code,err", [
    ("check 3 4 5", None, 0, ""),
    ("gen-g --g 3", None, 2, "g=3 is inadmissible: not an odd square; not twice a square\n"),
    ("gen-g --count 5", None, 1, "pptriples gen-g: error: the following arguments are required: --g\n"),
    ("check 3 4 5", OSError(28, "No space left on device"), 1,
     "cannot write stdout: [Errno 28] No space left on device\n"),
    ("check 3 4 5", BrokenPipeError(32, "Broken pipe"), 0, ""),
    ("interrupted", None, 130, ""),
], ids=["ok", "refusal", "usage", "full", "broken-pipe", "interrupt"])
@pytest.mark.parametrize("stderr", ["open", "closed"])
def test_entrypoint_flushes_stdout_then_stderr_then_exits(argv, error, code, err, stderr, exit_log, monkeypatch):
    out = LoggedStream("stdout", exit_log, error)
    monkeypatch.setattr(sys, "argv", ["pptriples", *argv.split()])
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", LoggedStream("stderr", exit_log) if stderr == "open" else None)
    if argv == "interrupted":
        monkeypatch.setattr(cli, "main", _interrupted)
    with pytest.raises(Exited):
        cli.entrypoint()
    if stderr == "open":
        assert exit_log == ["stdout.flush", "stderr.flush", f"_exit({code})"]
        got = sys.stderr.getvalue()
        assert (got.split("\n", 1)[1] if got.startswith("usage: ") else got) == err
    else:  # `2>&-`: Python sets no stderr
        assert exit_log == ["stdout.flush", f"_exit({code})"]
    if err and error is None:  # a refusal or usage line, never written to stdout
        assert out.getvalue() == ""
    if argv == "interrupted":
        assert out.getvalue() == "partial\n"


def test_entrypoint_exits_1_on_a_closed_stdout(exit_log, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", LoggedStream("stderr", exit_log))
    with pytest.raises(Exited):
        cli.entrypoint()
    assert exit_log == ["stderr.flush", "_exit(1)"]
    assert sys.stderr.getvalue() == "cannot write stdout: it is closed\n"


def test_missing_subcommand_exits_1():
    assert main([]) == 1
