"""Self-test of the benchmark: every workload once at a tiny size, fixed seed.

    python3 -m pytest perfbench/test_bench.py -q

It asserts that every metric BENCHMARK.json names is emitted, that every
request passes its output checks, and that the known-defect probes fail
exactly as listed in OPEN_DEFECTS.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7

# The in-contract defects that still fail, per workload.  A change that fixes
# one lowers its count here, and the benchmark then checks its output.
OPEN_DEFECTS = {"hyp-gen": 1, "leg-gen": 2, "density-sweep": 0, "oracle-verify": 1}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    res = run.run_untraced(workload, SEED, seconds=0, tiny=True)
    assert (res["correct"], res["failed"]) == (True, 0)
    assert res["attempted"] == len(workloads.requests(workload, SEED, tiny=True))
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_the_open_defects(workload):
    res = run.run_traced(workload, SEED, seconds=0, tiny=True)
    assert (res["correct"], res["failed"]) == (True, 0)
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    requests = workloads.requests(workload, SEED, tiny=True)
    sent = len(requests) + len(workloads.defects(workload, SEED))
    assert res["metrics"]["fail_ratio"]["value"] == OPEN_DEFECTS[workload] / sent


def test_every_catalog_request_is_pinned():
    assert [r.key for r in workloads.catalog() if r.key not in run.pins()] == []


def test_requests_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.requests(workload, 11) == workloads.requests(workload, 11)
        assert workloads.defects(workload, 11) == workloads.defects(workload, 11)
    assert workloads.requests("hyp-gen", 11) != workloads.requests("hyp-gen", 12)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "hyp-gen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_density_counts_must_sum_to_the_pool():
    def response(family: str, count: int):
        ratio = outputs.render_ratio(Fraction(count, 31))
        predicted = "0.000000" if family == "G1" else "0.333333"
        text = f"B,family_count,pool_count,ratio,predicted\n10,{count},31,{ratio},{predicted}\n"
        return tracing.Response(0, text.encode(), b"")

    requests = [
        workloads.Request(("density", "--family", f, "--grid", "10")) for f in ("GO", "GEE", "GEO")
    ]
    good = [response("GO", 9), response("GEE", 9), response("GEO", 13)]
    assert outputs.check_pass(requests, good, {}) == [None] * 3
    bad = good[:2] + [response("GEO", 12)]
    assert all("pool" in why for why in outputs.check_pass(requests, bad, {}))
