"""Golden CLI bytes: the sha256 of stdout (or of the --out file) and the exit
code for a fixed set of argvs, pinned from the CLI before its record output
was rebuilt around one table of field names.  Any change to the rendered
bytes of any command, format or record tag shows up here.  The three gen-g
gaps with roots m = 1000003, 500009 and 499998 were pinned while generation
still walked every index from n = 1, and the gen-f requests for f = 2737,
31 (m = -40..25) and 1 (m = 3..9) while generation still re-powered DELTA for
every m and tried both signs.  The gen-f requests for f = 1 (m = -9..-3),
7 (m = 4..9), 119 (m = -12..-5), 17 (m = -2..7) and 343 (m = -3..3) were
pinned while generation still walked both branches of each conjugate pair.  The three g-coverage, f-coverage and
nonexistence requests, the refusal lines and the counterexample reports of
injected faults were pinned while each `verify` suite still built its own
reports and each command mapped its own refusals to exit codes; the two
Pell faults then went through the deleted `neg_pell_solution`, and were
moved onto `pell.gamma_delta_power` with their reports unchanged, and the
f-coverage fault went through the list wrapper `generate_f_triples`, and
was moved onto the stream `iter_f_triples` with its report unchanged.  The
two g-coverage faults went through `checks.family_triple` and
`checks.invert_to_family`, with the reports "(15, 8, 17) not regenerated at
g=9, n=2" and "(33, 56, 65): injected", while the suite still inverted each
enumerated triple; they now drop the same triples from the g = 9 stream
`hyp_gap.iter_g_family`, with their counts unchanged and their
counterexamples re-pinned.  The seven gen-g requests of 64 to 300 members
(roots 3, 1, 2 and 15015, the odd root 3*5*...*59 > 2**64 in both its gaps,
and 2**64) were pinned while generation still built one member per index;
they span the edges of the 64-index blocks it now builds.  The f-coverage
and density-cross faults, once
`checks` bound no layer's names at import, moved onto `leg_gap` and
`density` with their reports unchanged.  The density grids topping out at
2, 3, 8, 27, 28, 1000 and 1001, whose totient tables end on either side of a
cube, and the GEO grid to 10**8 were pinned while the table held phi itself
and each row held its ratio as a `Fraction`.  The `check` requests for the
non-primitive 9 12 15 and 12 9 15 (one per even leg) and for 4 3 5 (a gap of
twice an odd square) were pinned while `check` still tested primitivity by
the gcd of the legs before it read the parameter pair."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pptriples
from pptriples import checks, density, hyp_gap, leg_gap, pell
from pptriples.cli import main
from pptriples.zsqrt2 import DELTA, ONE

GOLDEN = [
    ("gen-g --g 9 --count 5", 0, "efb10c96fa52435570f9ff87afc74a5790fd262a2501804958734e0daf89a1f2"),
    ("gen-g --g 8 --count 5 --format json", 0, "bc923c3ddcb6af6e56abd915ec15c4c9cea724cf1fcbaf5c84464c942390ecc3"),
    ("gen-g --g 18 --count 4", 0, "682c158d1ebabd4124a4b0cbb05d2cd64e09a6aeafdcc3612845201f63612b49"),
    ("gen-g --g 1 --count 3 --format json", 0, "b7ea1e7cd106b5b0a9d7e0b496d926ebfd4288bf10374e5be1496660965a0496"),
    ("gen-g --g 1000006000009 --count 20", 0, "c027648cc0d32d67d5e018be51551ec660a3a8097229ac6f66a494009af0a635"),
    ("gen-g --g 500018000162 --count 20 --format json", 0, "e1d152e70c061f9bf57540da627ae501bfb213aa243a0ecc4b5e1ae295423475"),
    ("gen-g --g 499996000008 --count 20", 0, "a9f77e7ff4e22cd871b3b80b12e28248eaf882edde5bcfab3499dc22857c4cc8"),
    ("gen-g --g 9 --count 200", 0, "ee2c11fdd65ee301dc71a25d71b9be519de9cb80278fa27d4d7e8abb395091c7"),
    ("gen-g --g 2 --count 65 --format json", 0, "3f2af1d931c9d41fc2bd11b699417f2dd81092fd40b95fd395947887569b3692"),
    ("gen-g --g 8 --count 129", 0, "8c1e61f7330e0f460c5df5a5d4b3497fcea714df55861bbfd0aec4ee4a9a0620"),
    ("gen-g --g 225450225 --count 300", 0, "104ac3d604001c2b0f789ab8c27af76b0005517fdb83526b2cf392379f23faec"),
    ("gen-g --g 924251841031287598942273821762233522616225 --count 70", 0, "12be18dfc7d096f4f61068cec2624acddf01b2e918612c55893052ccc2e1aba2"),
    ("gen-g --g 1848503682062575197884547643524467045232450 --count 129 --format json", 0, "a067daa4cf9e64639905e4bde0eb3eedffe1ce23fc3f16c7b4ac166238429204"),
    ("gen-g --g 680564733841876926926749214863536422912 --count 64", 0, "e9465a2e8e653d79425f997c081626d2af71b64bcdc181695a5601ad4782766e"),
    ("gen-g --g 3 --count 1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gen-f --f 7 --m -3..3", 0, "e95a372f4190dfda800f9b71bba5ef4b5fe1becb3ed6c610c7cf8c5ee085fb72"),
    ("gen-f --f 119 --m -2..2", 0, "9b10f6270559de17e03709d34f151d9b934e6732b3e5fc76f47760e53bff590f"),
    ("gen-f --f 119 --m -2..2 --format json", 0, "b31b80908334135295508f5082f1ed57e5e9c4b9104139dcd222efff7db32a6e"),
    ("gen-f --f 49 --m 0..1", 0, "a6b617c2c8d679dff4fe20df305eb700e01729ba615580fc32b1b4fb19ff7b2f"),
    ("gen-f --f 1 --m -4..4 --format json", 0, "2385176a78605cdc26ebde8504a08945129db39fd6b7ff1762e39a93fb208cf7"),
    ("gen-f --f 2737 --m -5..5", 0, "fdd236d8a5d4d1496328f3f69f5a99c6edc56f207b43fe5b34456877d41e253e"),
    ("gen-f --f 31 --m -40..25 --format json", 0, "4e3f5928af2ad143241421a2dbd5b16874b6aba17f7e476a8526c7aac96b05ab"),
    ("gen-f --f 1 --m 3..9", 0, "1feea87d71f7d2292cb5573f88d1a3dd853998f2989d09d54168bb969ae80ec6"),
    ("gen-f --f 1 --m -9..-3", 0, "6ca790c7b34a81ff315b79c9482a8e41bcf4db272ba95116a81e8f6f6c2af116"),
    ("gen-f --f 7 --m 4..9", 0, "b603aad812d44b3540189d647633dc99fb2d7f037678d9be58bfb18319eefc16"),
    ("gen-f --f 119 --m -12..-5 --format json", 0, "9731aabf206652c4114f41e40f6fa1bd93b8f64d649eeb5250482f19f74f90b6"),
    ("gen-f --f 17 --m -2..7", 0, "1662ca2d4b4034e209ba051de13728a786c7939649fd34631c9da5f1e4d07aa6"),
    ("gen-f --f 343 --m -3..3", 0, "c6aaa45afee481292f103e1388c8269e4312581778536738431cf686ac0977a5"),
    ("gen-f --f 3 --m 0..1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check 15 8 17", 0, "3f4ec18fb5dce16190275a579f401a74ef63ea3e51ec17d5e8b01bb5021c0260"),
    ("check 20 21 29 --format json", 0, "26874c022b00ebb4cbaed54d65690dd4f79da38f75ab7dc1449958472664f8bd"),
    ("check 6 8 10", 4, "fb71568e5ef03a814b25e3d47a86325a61f95cdcfb2897e9013951621605aa97"),
    ("check 6 8 10 --format json", 4, "9e456e53c4846fd3a6b3bba03b9a7ee7e067105fed69ba2e049b52c0ff908e30"),
    ("check 1 2 3", 4, "8b83bbaa3f777b4d994c7caf2e4d6a602cd5763db578e1921b9875f7735d5ea5"),
    ("check 1 2 3 --format json", 4, "0736728ee398cac6ee64e7838ffac4f6e61ed2cd262f107b6adf580421aa110c"),
    ("check 9 12 15", 4, "321da0052d17f83189742916d0fe3853476583b9f8ee18ae56b0c4bff384084d"),
    ("check 9 12 15 --format json", 4, "c13b753088ddd48be22659e37c4be0b0433322e4094fb0885c9025fa679c69b7"),
    ("check 12 9 15", 4, "f17ee76db082385905fcb0df6a44fa59b811de63d6a41199e1cb99d8ab3e6c54"),
    ("check 12 9 15 --format json", 4, "d85a4e8c26465235abc0072361c46dc1bd9f009b4f506122384891be8bf36c4c"),
    ("check 4 3 5", 0, "8635a860621e89ebe61d485618f501ed1aeeee64ab60c5e667372e39fa3aacfd"),
    ("check 4 3 5 --format json", 0, "86a6c321d49b7174a0ecf571c9395e357edae6889bf9d867164a7851e6bb4a05"),
    ("density --family GO --grid 10,100,1000", 0, "fa20d47d06bf2bfd79a3c6c504bbab9bf2015a1a90896dd0a694a051309f739b"),
    ("density --family GEE --grid 10,100 --format json", 0, "224683dc57371087f425eb599089c21a9a95ff5de232667f13fb077d459e3eac"),
    ("density --family GEO --grid 2,10,500", 0, "5598d02d7f5480ad483d3b1f3649b73477ff531637de5ca979578145b4636f15"),
    ("density --family G1 --grid 5,50 --format json", 0, "8b7eeb4a42ffdcd37053ad0d75b2ee96c00fd604214475d340e72ebbd820a7b3"),
    ("density --family GEO --grid 10,100 --out {out}", 0, "ca47e9a8c4fe081802f76576c695fc6a30e2fc6d1e28d0a77d920cc86b35d1ec"),
    ("density --family GO --grid 10,1000 --format json --out {out}", 0, "d385407adf46b0e7c489fe6fd47d07370c48bf994f414f6b8db266fb751b7ec6"),
    ("density --family GO --grid 2", 0, "03382a55955b30312b97ce5a546cb86eff588a10a53cb6ba56c915eafe01b0d4"),
    ("density --family GEE --grid 2 --format json", 0, "1d4f72be8950ccba3d3be435e16909434f0b58e3b09f727d5d3456559ea18794"),
    ("density --family GEO --grid 2,3", 0, "afefab7cfe3e6ed6bef60e5614c2e5dc901957207ec00a2484b8580a75d413ee"),
    ("density --family G1 --grid 2,3 --format json", 0, "6bac454aa0316cca2452945ea3785e1243afa55c985bcf9b3537b1282d9bf767"),
    ("density --family GO --grid 3,8", 0, "bfefcbd957a21fa976e66d73555e7be0020e8bfa1b938c5b290e431ad932c3cb"),
    ("density --family GEE --grid 3,8 --format json", 0, "4a4c75c2b9eaf55300dd1429fd44d43b26ad840402efb133ac033554018e2eea"),
    ("density --family GEO --grid 8,27", 0, "77cd8839a26215a706c52b235ffce1c578a60cc4e719867b9162320622a6c3e3"),
    ("density --family G1 --grid 8,27 --format json", 0, "4938c3bad2a23502a19ca4dbb5245f3eca7c6b3e006cd4863d6256f0e38ec12e"),
    ("density --family GO --grid 10,28", 0, "3cc944a7c7b3b7328f0079fe74a62dad72ed9d9e6ac82b4498c07f4f63805eaf"),
    ("density --family GEE --grid 10,28 --format json", 0, "0f4e31835f6c4ff14948441a6b204a97d3a4055bb63666ccf5ecc3bd33076562"),
    ("density --family GEO --grid 27,100,1000", 0, "18ba703e57dd640512cc8282eaab0d81dc147880df10d1930b1dbb3f49bcb615"),
    ("density --family G1 --grid 27,100,1000 --format json", 0, "a0109b85880e6284ca0607f999ea98c2f4b931f494fcd6843af06e62f10cb69e"),
    ("density --family GO --grid 28,1001", 0, "6de60657c2a35527f1fe4c06f09f762828af081b08e9fce3df5ca2e7878e9b0d"),
    ("density --family GEE --grid 28,1001 --format json", 0, "0652bb0b1439ce10dc7210a9e47a4fe14206dbb6df38749d8074792edaaef034"),
    ("density --family GEO --grid 10,100000000", 0, "f4319d1f33bb62647d0cf396e4806b92e2fc7a48c85be08e31a663a9efee60c3"),
    ("verify pell --m-max 20", 0, "41ed68ed53f0f7675a5feb0f657db3e33d18ecf66347d1c4973ef7330b890499"),
    ("verify density-cross --b-max 60", 0, "357743501d437478c50d60957b4d68d8016f4f7d6599a3502c9eecbf89343eed"),
    ("verify g-coverage --c-max 2000", 0, "4ce93120ea899feb35aee60455b4d03f9f6c62d238d1d27191b9e7d60f842099"),
    ("verify f-coverage --c-max 20000", 0, "8e000dad9602ea6427bd6886910f693a26dfa5c6814541567b0273b3a19f6b23"),
    ("verify nonexistence --c-max 20000", 0, "579d3dc13775e8eaa474aabf8c22025936687a30810224378933f7999bcb1647"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_bytes(argv, code, digest, tmp_path):
    out_path = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        got = main([arg.replace("{out}", str(out_path)) for arg in argv.split()])
    data = stdout.getvalue().encode()
    if "{out}" in argv:
        assert data == b""
        data = out_path.read_bytes()
    assert (got, hashlib.sha256(data).hexdigest()) == (code, digest)


def run_child(python, argv, out_path, unbuffered):
    """Run `argv` as a `python -m pptriples` child, its stdout a pipe and
    buffered unless `unbuffered`.  Returns its exit code, the sha256 of its
    stdout (or of the --out file, when stdout is empty and the file was
    written) and its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(pptriples.__file__).resolve().parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv_list = [arg.replace("{out}", str(out_path)) for arg in argv.split()]
    proc = subprocess.run([python, "-m", "pptriples", *argv_list], capture_output=True, env=env, timeout=60)
    written = "{out}" in argv and proc.stdout == b"" and out_path.exists()
    data = out_path.read_bytes() if written else proc.stdout
    return proc.returncode, hashlib.sha256(data).hexdigest(), proc.stderr.decode()


# one request per command, a gen-g of three 64-index blocks and an --out file
BUFFERED = [
    "gen-g --g 8 --count 129",
    "gen-f --f 7 --m -3..3",
    "check 6 8 10",
    "density --family GO --grid 10,100,1000",
    "density --family GEO --grid 10,100 --out {out}",
    "verify pell --m-max 20",
]


@pytest.mark.parametrize("argv", BUFFERED)
def test_golden_bytes_with_buffered_stdout(argv, tmp_path):
    """A child whose stdout is block-buffered still writes every byte: the
    buffer is flushed before the process ends without interpreter teardown."""
    code, digest = next((c, d) for a, c, d in GOLDEN if a == argv)
    assert run_child(sys.executable, argv, tmp_path / "out", unbuffered=False) == (code, digest, "")


# argv -> (exit code, the one stderr line); stdout stays empty
REFUSALS = [
    ("gen-g --g 3", 2, "g=3 is inadmissible: not an odd square; not twice a square"),
    ("gen-f --f 3 --m 0..1", 2, "f=3 is inadmissible: prime factor 3 is 3 mod 8, not +/-1"),
    (
        "gen-f --f 18446744073709551629 --m 0..0",
        3,
        "factorization supports n < 2**64, got 18446744073709551629",
    ),
    ("verify pell --c-max 3", 1, "verify pell reads --m-max, not --c-max"),
]


@pytest.mark.parametrize("argv,code,line", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusal_lines(argv, code, line):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        got = main(argv.split())
    assert (got, stdout.getvalue(), stderr.getvalue()) == (code, "", line + "\n")


def _fault(name, broken, module=checks):
    """Replace `module.<name>` with `broken(original)` for one suite run."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, broken(getattr(module, name)))


def _drop_from_g9(c):
    """Drop the member with hypotenuse c from the g = 9 family stream."""
    def broken(original):
        def stream(g, count):
            members = original(g, count)
            return (x for x in members if x.c != c) if g == 9 else members
        return stream
    return broken


def _raise_at(when, message):
    def broken(original):
        def call(arg, *rest):
            if when(arg):
                raise ValueError(message)
            return original(arg, *rest)
        return call
    return broken


# (injected fault, suite call) -> (scope, checks, failures, counterexample)
COUNTEREXAMPLES = [
    (
        _fault("iter_g_family", _drop_from_g9(17), hyp_gap),
        lambda: checks.check_g_coverage(2000),
        ("g-coverage", 5, 1, "(15, 8, 17) missing from the g=9 family"),
    ),
    (
        _fault("iter_g_family", _drop_from_g9(65), hyp_gap),
        lambda: checks.check_g_coverage(2000),
        ("g-coverage", 19, 1, "(33, 56, 65) missing from the g=9 family"),
    ),
    (
        _fault(
            "iter_f_triples",
            lambda orig: lambda *a: (ft for ft in orig(*a) if ft.triple.c != 29),
            leg_gap,
        ),
        lambda: checks.check_f_coverage(20000),
        ("f-coverage", 5, 1, "(20, 21, 29) missing from the f=1 sweep"),
    ),
    (
        lambda monkeypatch: None,
        lambda: checks.check_nonexistence(20000, hyp_gaps=(9,)),
        ("nonexistence", 3, 1, "(15, 8, 17) has hypotenuse gap 9"),
    ),
    (
        lambda monkeypatch: None,
        lambda: checks.check_nonexistence(20000, hyp_gaps=(), leg_gaps=(7,)),
        ("nonexistence", 2, 1, "(5, 12, 13) has leg gap 7"),
    ),
    (
        _fault("gamma_delta_power", _raise_at(lambda m: m == 1, "injected"), pell),
        lambda: checks.check_pell(5),
        ("pell", 7, 1, "m=1: injected"),
    ),
    (
        _fault("gamma_delta_power", lambda orig: lambda m: DELTA**m if m == 2 else orig(m), pell),
        lambda: checks.check_pell(5),
        ("pell", 8, 1, "m=2: (17, 12) does not solve x^2 - 2y^2 = -1"),
    ),
    (
        _fault("_apply_pair", lambda orig: lambda t, rc: orig(t, rc) + (ONE if rc.n == 5 else 0)),
        lambda: checks.check_pell(5),
        ("pell", 17, 1, "recurrence mismatch at t=-709+752√2, n=5"),
    ),
    (
        _fault("gamma_delta_power", lambda orig: lambda m: orig(4 if m == 3 else m), pell),
        lambda: checks.check_pell(2),
        ("pell", 69, 1, "(239, 169) solves the equation but is not GAMMA*DELTA^m"),
    ),
    (
        _fault("count_GEO", lambda orig: lambda B, sums: orig(B, sums) + (B == 7), density),
        lambda: checks.check_density_cross(60),
        ("density-cross", 28, 1, "GEO(7) formula gives 6, enumeration gives 5"),
    ),
]


@pytest.mark.parametrize("fault,run,want", COUNTEREXAMPLES)
def test_counterexample_reports(fault, run, want, monkeypatch):
    fault(monkeypatch)
    report = run()
    assert (report.scope, report.checks, report.failures, report.counterexample) == want


if __name__ == "__main__":
    # python tests/test_golden.py PYTHON...: run every GOLDEN and REFUSALS command
    # line as a `PYTHON -m pptriples` child of each interpreter named, once with
    # stdout buffered and once unbuffered; exit 1 unless every case matched.  A
    # child that cannot be started or does not finish is a mismatch.
    import itertools
    import tempfile

    cases = [(argv, code, digest, None) for argv, code, digest in GOLDEN]
    cases += [(argv, code, hashlib.sha256(b"").hexdigest(), line + "\n") for argv, code, line in REFUSALS]
    all_matched = True
    for python in sys.argv[1:]:
        matched = 0
        for (argv, code, digest, err), unbuffered in itertools.product(cases, (False, True)):
            with tempfile.TemporaryDirectory() as tmp:
                try:
                    got, got_digest, got_err = run_child(python, argv, Path(tmp) / "out", unbuffered)
                except (OSError, subprocess.SubprocessError) as exc:
                    got, got_digest, got_err = None, None, f"{type(exc).__name__}: {exc}"
            if (got, got_digest) == (code, digest) and err in (None, got_err):
                matched += 1
            else:
                mode = "unbuffered" if unbuffered else "buffered"
                print(f"{python}: {argv} ({mode}): got {(got, got_digest)}, stderr {got_err!r}")
        print(f"{python}: {matched} of {2 * len(cases)} matched")
        all_matched = all_matched and matched == 2 * len(cases)
    sys.exit(0 if all_matched else 1)
