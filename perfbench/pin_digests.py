#!/usr/bin/env python3
"""Pin the sha256 digests of every workload's outputs for a range of seeds.

    python3 perfbench/pin_digests.py 0 15      # seeds 0..15 inclusive

Runs each workload's full and --episodes 1 command sequences once per seed,
checks the outputs, and rewrites perfbench/digests.json. A later benchmark
run with a pinned seed fails when its outputs differ. Re-pin only together
with a documented change of the output format; a digest that changes
silently means the seeded replay contract broke.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import inputs
import run


def pin(workload: str, seed: int, work, env) -> dict:
    wl = run.workloads()[workload]
    instance = wl.instance(seed) if wl.instance else None
    if instance is not None:
        inputs.write(instance, work / "instance.json")
    verifier = run.Verifier(instance, seed)
    out = {}
    for tag, episodes in (("full", None), ("setup", 1)):
        cmds = run.commands(wl, seed, work / "instance.json", episodes)
        out[tag] = verifier.sequence(tag, cmds, run.run_sequence(cmds, work / tag, env))
    if verifier.failed or verifier.problems:
        raise SystemExit(f"{workload} seed {seed}: outputs fail their checks: {verifier.problems}")
    return out


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    env = run.child_env(len(os.sched_getaffinity(0)))
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    work = run.WORK / f"pin-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in run.workloads():
            for seed in range(first, last + 1):
                table.setdefault(workload, {})[str(seed)] = pin(workload, seed, work, env)
                print(workload, seed, table[workload][str(seed)]["full"][:16], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table = {w: dict(sorted(table[w].items(), key=lambda kv: int(kv[0]))) for w in sorted(table)}
    run.DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
