#!/usr/bin/env python3
"""Pin the sha256 of every catalog request's stdout into golden.json.

    python3 perfbench/pin.py

Run from the root of a source checkout.  Every request any seed can produce
is run once through the CLI; a request whose output fails its invariant
checks is reported and not pinned, and the script exits non-zero.  Re-pin
only when a workload's catalog changes: the pins guard the CLI's golden
bytes, so a change to the program's output must show as a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from workloads import catalog


def main() -> int:
    env = run.child_env()
    with run.proc.Launcher() as launcher:
        run.preflight(launcher, env)
        return _pin(launcher, env)


def _pin(launcher, env) -> int:
    golden, bad = {}, 0
    for i, req in enumerate(catalog(), 1):
        out = launcher.spawn(run.cli(req.argv), env, req.deadline_s)
        why = run.outputs.check(req, out.code, out.stdout, out.stderr, {})
        if why is not None:
            bad += 1
            print(f"NOT PINNED {req.key[:100]}: {why}", file=sys.stderr)
            continue
        golden[req.key] = hashlib.sha256(out.stdout).hexdigest()
        print(f"{i:4d} {out.wall_s:6.3f} s  {req.key[:100]}", flush=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
