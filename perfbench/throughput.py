"""Throughput child: time ``hstmatch.run_pipeline`` in a warm process.

    python3 perfbench/throughput.py INSTANCE.json EPISODES SEED BUDGET_S

Imports and instance loading happen before the clock starts. Each timed call
is a whole ``run_pipeline(inst, seed, EPISODES)``, its own setup included.
Calls repeat until BUDGET_S seconds of calls have run (at least three), with
a calibration probe (calibrate.py) before the first call and after each one.
Prints one JSON line: the package path, the seconds of every call and of
every probe, and the reports, which the benchmark checks against its own
optimum and for replay.
"""
from __future__ import annotations

import json
import sys
import time

import calibrate
import hstmatch
from hstmatch.harness import report_to_dict


def main(argv) -> int:
    path, episodes, seed, budget = argv[0], int(argv[1]), int(argv[2]), float(argv[3])
    inst = hstmatch.load_instance(path)
    seconds, reports, probes = [], [], [calibrate.probe()]
    while len(seconds) < 3 or sum(seconds) < budget:
        t0 = time.perf_counter()
        report = hstmatch.run_pipeline(inst, seed, episodes)
        seconds.append(time.perf_counter() - t0)
        reports.append(report_to_dict(report))
        probes.append(calibrate.probe())
    print(json.dumps({"package": hstmatch.__file__, "seconds": seconds, "probes": probes, "reports": reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
