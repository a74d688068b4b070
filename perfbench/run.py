#!/usr/bin/env python3
"""Benchmark of the pptriples CLI.

    python3 perfbench/run.py --workload hyp-gen --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  With `--trace 0` the benchmark drives `python -m pptriples` as a
closed loop with one client (one child process at a time) and reports the
end-to-end metrics.  With `--trace 1` it calls the CLI and library in its
own process with spans around the library's public functions and reports
the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Metric names and units come
from BENCHMARK.json at the checkout root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import outputs  # noqa: E402
import proc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REQUEST = workloads.Request(("check", "3", "4", "5"))
SETUP_SPAWNS = 9
IMPORT_SPAWNS = 5
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import pptriples.cli; print(time.perf_counter() - t)"
)
MIN_TRACED_PASSES = 2
# Share of the requests' wall time spent sampling host speed (see calibrate.py).
CALIBRATION_SHARE = 0.2


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pins() -> dict[str, str]:
    return json.loads((HERE / "golden.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PPT_SIEVE_BUDGET", None)  # measure the documented default budget
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli(argv) -> list[str]:
    return [sys.executable, "-m", "pptriples", *argv]


def preflight(launcher: proc.Launcher, env: dict[str, str]) -> None:
    """Refuse to run without the program's source, and warm the bytecode cache."""
    if not (SRC / "pptriples" / "cli.py").is_file():
        raise Fatal(f"no pptriples source under {SRC}")
    out = launcher.spawn(cli(SETUP_REQUEST.argv), env, SETUP_REQUEST.deadline_s)
    why = outputs.check(SETUP_REQUEST, out.code, out.stdout, out.stderr, {})
    if why is not None:
        raise Fatal(f"`pptriples check 3 4 5` failed: {why}; stderr: {out.stderr.decode()[-500:]}")


def judge(requests, responses, golden) -> list[str | None]:
    """Check one pass and name each failed request on stderr."""
    verdicts = outputs.check_pass(requests, responses, golden)
    for req, why in zip(requests, verdicts):
        if why is not None:
            log(f"FAIL {req.key[:120]}: {why}")
    return verdicts


def result(names: list[dict], values: dict[str, float], attempted: int, failed: int) -> dict:
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise Fatal(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def run_untraced(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """End-to-end metrics: fresh CLI processes, one at a time, for `seconds`."""
    # One CPU for the benchmark, the launcher and every child, so the host
    # speed the calibration kernel samples is that of the CPU the requests ran on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        with proc.Launcher() as launcher:
            return _run_untraced(launcher, workload, seed, seconds, tiny)
    finally:
        os.sched_setaffinity(0, cpus)


def _run_untraced(launcher, workload, seed, seconds, tiny) -> dict:
    env, golden = child_env(), pins()
    preflight(launcher, env)
    cal = calibrate.Calibrator(CALIBRATION_SHARE)
    raw_setup = []
    for _ in range(SETUP_SPAWNS):
        raw_setup.append(launcher.spawn(cli(SETUP_REQUEST.argv), env, SETUP_REQUEST.deadline_s).wall_s)
        cal.after(raw_setup[-1])
    setup_scale = cal.scale()
    requests = workloads.requests(workload, seed, tiny)
    walls, firsts, peak, attempted, failed = [], [], 0.0, 0, 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        outcomes, sampled = [], len(cal.samples)
        for req in requests:
            outcomes.append(launcher.spawn(cli(req.argv), env, req.deadline_s))
            cal.after(outcomes[-1].wall_s)
        ok = [o for o, why in zip(outcomes, judge(requests, outcomes, golden)) if why is None]
        attempted += len(requests)
        failed += len(requests) - len(ok)
        wall, first = sum(o.wall_s for o in ok), sum(o.first_record_s for o in ok)
        scale = cal.scale(sampled)
        walls.append(scale * wall)
        firsts.append(scale * first)
        peak = max([peak] + [o.peak_rss_mb for o in ok])
        cpu, size = sum(o.cpu_s for o in ok), sum(len(o.stdout) for o in ok)
        print(f"pass {len(walls)}: {len(ok)}/{len(requests)} ok, wall {wall:.3f} s, "
              f"first record {first:.3f} s, cpu {cpu:.3f} s, stdout {size} B, "
              f"host speed scale {scale:.4f}", flush=True)
    print(f"setup: median {statistics.median(raw_setup):.4f} s, host speed scale {setup_scale:.4f}",
          flush=True)
    values = {
        "wall_s": statistics.median(walls),
        "first_record_s": statistics.median(firsts),
        "peak_rss_mb": peak,
        "setup_s": setup_scale * statistics.median(raw_setup),
    }
    return result(spec()["end_to_end"], values, attempted, failed)


def _import_program():
    sys.path.insert(0, str(SRC))
    import pptriples.cli

    if Path(pptriples.cli.__file__).resolve().parent != (SRC / "pptriples").resolve():
        raise Fatal(f"imported pptriples from {pptriples.cli.__file__}, not {SRC}")


def _in_process_pass(requests, tracer, golden) -> tuple[float, int, int]:
    """One pass through cli.main; returns (seconds in main, stdout bytes, failures)."""
    busy, responses = 0.0, []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        resp, elapsed = tracing.call_main(list(req.argv), tracer)
        busy += elapsed
        responses.append(resp)
    failed = sum(why is not None for why in judge(requests, responses, golden))
    return busy, sum(len(r.stdout) for r in responses), failed


def run_traced(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """Per-layer metrics from spans around library calls in this process."""
    env, golden = child_env(), pins()
    start = time.perf_counter()
    # Known defects run as child processes with their deadline: two of them hang.
    probes = workloads.defects(workload, seed)
    import_s, probe_failed = [], 0
    with proc.Launcher() as launcher:
        preflight(launcher, env)
        for _ in range(IMPORT_SPAWNS):
            out = launcher.spawn([sys.executable, "-c", IMPORT_SNIPPET], env, 30.0)
            if out.code != 0:
                raise Fatal(f"importing pptriples.cli failed: {out.stderr.decode()[-500:]}")
            import_s.append(float(out.stdout))
        for req in probes:
            out = launcher.spawn(cli(req.argv), env, req.deadline_s)
            why = outputs.check(req, out.code, out.stdout, out.stderr, {})
            if why is not None:
                probe_failed += 1
                log(f"KNOWN DEFECT {req.key[:80]}: {why}")
    _import_program()
    os.environ.pop("PPT_SIEVE_BUDGET", None)
    requests = workloads.requests(workload, seed, tiny)

    mem = tracing.Tracer(memory=True)
    with tracing.installed(mem):
        _, _, first_failed = _in_process_pass(requests, mem, golden)
    attempted, failed = len(requests), first_failed

    plain, traced, layers, size = [], [], [], 0
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        # alternate which pass of the pair goes first
        for traced_pass in (len(traced) % 2 == 1, len(traced) % 2 == 0):
            if traced_pass:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    busy, _, bad = _in_process_pass(requests, tracer, golden)
                traced.append(busy)
                layers.append(tracing.layer_metrics(tracer.spans))
            else:
                busy, size, bad = _in_process_pass(requests, None, golden)
                plain.append(busy)
            attempted += len(requests)
            failed += bad
        print(f"pair {len(traced)}: untraced {plain[-1]:.3f} s, traced {traced[-1]:.3f} s",
              flush=True)

    values = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    values.update(tracing.peak_metrics(mem.spans))
    values["cli.import_s"] = statistics.median(import_s)
    values["cli.stdout_bytes"] = size
    values["fail_ratio"] = (first_failed + probe_failed) / (len(requests) + len(probes))
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    _write_spans(workload, seed, tracer.spans)
    return result(spec()["per_layer"], values, attempted, failed)


def _write_spans(workload: str, seed: int, spans) -> None:
    out = ROOT / ".bench_out" / f"spans-{workload}-{seed}.json"
    out.parent.mkdir(exist_ok=True)
    rows = [dict(vars(s), **s.attrs) for s in spans]
    for row in rows:
        del row["attrs"]
    out.write_text(json.dumps(rows))
    log(f"spans of the last traced pass: {out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = run_traced if args.trace else run_untraced
    try:
        res = run(args.workload, args.seed, args.seconds)
    except Fatal as exc:
        log(f"benchmark cannot run: {exc}")
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
