#!/usr/bin/env python3
"""In-process A/B timing of ``run_pipeline`` and the CLI for two checkouts.

    python3 tools/ab_inprocess.py PARENT/src CHANGE/src --workload euclid-embed --seed 9101 --pairs 30

Loads the ``hstmatch`` package of each ``src/`` directory into one process
under its own module name, builds the workload's throughput instance from
``perfbench`` (the same seeded input and episode count the benchmark times),
and times whole ``run_pipeline`` calls in alternating pairs: even pairs run A
first, odd pairs B first. In each pair a side first loads the instance with
its own ``instance_from_dict`` (timed apart) and then runs on what it loaded,
so work moved between loading and a run shows on both clocks. Then, in the
same order, each side's ``cli.main`` runs the workload's command sequence as
``perfbench/run.py::commands`` builds it (every ``-o`` trace, ``--report``
and sweep table written into that side's own temporary directory), which
times the trace and report writing that ``run_pipeline`` skips. Both sides
share the process, so a slow spell of a shared machine hits them alike; the
per-pair ratio is what to read. Each call is also timed in process CPU
seconds (``time.process_time``, every thread of the process): work moved
onto a second thread beside the call shows as lower wall time with CPU time
flat or higher. Prints each side's median and quartiles in milliseconds for
the call (wall and CPU), the load and the CLI sequence, the median of B/A
for each, how many pairs B won, and whether both sides returned the same
reports and wrote the same bytes; the last line is the same as JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench_run  # noqa: E402  (perfbench's modules import each other by bare name)


def load_package(src: Path, alias: str):
    """Import ``src/hstmatch`` as the top-level module ``alias``."""
    init = src / "hstmatch" / "__init__.py"
    spec = importlib.util.spec_from_file_location(alias, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path, help="src/ directory of side A (the parent)")
    p.add_argument("b", type=Path, help="src/ directory of side B (the change)")
    p.add_argument("--workload", default="euclid-embed", choices=sorted(perfbench_run.workloads()))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=30)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    wl = perfbench_run.workloads()[args.workload]
    data = (wl.throughput_instance or wl.instance)(args.seed)
    episodes = wl.throughput_episodes
    sides = [load_package(src.resolve(), f"hstmatch_{name}") for name, src in (("a", args.a), ("b", args.b))]
    clis = [importlib.import_module(f"{pkg.__name__}.cli") for pkg in sides]
    tmp = tempfile.TemporaryDirectory(prefix="ab_inprocess_")
    workdirs = [Path(tmp.name) / name for name in ("a", "b")]
    instance_path = Path(tmp.name) / "instance.json"
    if wl.instance is not None:
        perfbench_run.inputs.write(wl.instance(args.seed), instance_path)
    cmds = perfbench_run.commands(wl, args.seed, instance_path)

    def load_and_call(pkg) -> tuple:
        t0 = time.perf_counter()
        inst = pkg.metric.instance_from_dict(data)
        t1, c1 = time.perf_counter(), time.process_time()
        report = pkg.run_pipeline(inst, args.seed, episodes)
        wall_s, cpu_s = time.perf_counter() - t1, time.process_time() - c1
        return t1 - t0, wall_s, cpu_s, pkg.harness.report_to_dict(report)

    def run_commands(s: int) -> tuple:
        """Seconds for side s's CLI sequence, and the bytes of every file it wrote."""
        workdirs[s].mkdir(exist_ok=True)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for cmd in cmds:
                argv = [str(workdirs[s] / a) if a in cmd.outputs else a for a in cmd.argv]
                if clis[s].main(argv) != 0:
                    raise SystemExit(f"side {'ab'[s]}: hstmatch {' '.join(argv)} failed")
        elapsed = time.perf_counter() - t0
        return elapsed, {name: (workdirs[s] / name).read_bytes() for cmd in cmds for name in cmd.outputs}

    for s, pkg in enumerate(sides):  # warm-up: imports, caches, first-call costs
        load_and_call(pkg)
        run_commands(s)
    loads: tuple = ([], [])
    times: tuple = ([], [])
    cpu_times: tuple = ([], [])
    cli_times: tuple = ([], [])
    same = same_files = True
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        reports, files = {}, {}
        for s in order:
            load_s, call_s, cpu_s, reports[s] = load_and_call(sides[s])
            loads[s].append(load_s)
            times[s].append(call_s)
            cpu_times[s].append(cpu_s)
        for s in order:
            cli_s, files[s] = run_commands(s)
            cli_times[s].append(cli_s)
        same = same and reports[0] == reports[1]
        same_files = same_files and files[0] == files[1]
    tmp.cleanup()

    def quartiles_ms(xs) -> list:
        return [round(1e3 * x, 3) for x in statistics.quantiles(xs, n=4)]

    ratios = [b / a for a, b in zip(*times)]
    cpu_ratios = [b / a for a, b in zip(*cpu_times)]
    load_ratios = [b / a for a, b in zip(*loads)]
    cli_ratios = [b / a for a, b in zip(*cli_times)]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "episodes": episodes,
        "pairs": args.pairs,
        "a_ms": quartiles_ms(times[0]),
        "b_ms": quartiles_ms(times[1]),
        "median_b_over_a": round(statistics.median(ratios), 4),
        "b_wins": sum(r < 1.0 for r in ratios),
        "a_cpu_ms": quartiles_ms(cpu_times[0]),
        "b_cpu_ms": quartiles_ms(cpu_times[1]),
        "cpu_median_b_over_a": round(statistics.median(cpu_ratios), 4),
        "a_load_ms": quartiles_ms(loads[0]),
        "b_load_ms": quartiles_ms(loads[1]),
        "load_median_b_over_a": round(statistics.median(load_ratios), 4),
        "a_cli_ms": quartiles_ms(cli_times[0]),
        "b_cli_ms": quartiles_ms(cli_times[1]),
        "cli_median_b_over_a": round(statistics.median(cli_ratios), 4),
        "cli_b_wins": sum(r < 1.0 for r in cli_ratios),
        "same_reports": same,
        "same_cli_files": same_files,
    }
    for side in ("a", "b"):
        q1, q2, q3 = result[f"{side}_ms"]
        p1, p2, p3 = result[f"{side}_cpu_ms"]
        l1, l2, l3 = result[f"{side}_load_ms"]
        c1, c2, c3 = result[f"{side}_cli_ms"]
        print(
            f"{side}: median {q2:.3f} ms per call (quartiles {q1:.3f} .. {q3:.3f}),"
            f" {p2:.3f} ms CPU per call (quartiles {p1:.3f} .. {p3:.3f}),"
            f" {l2:.3f} ms per load (quartiles {l1:.3f} .. {l3:.3f}),"
            f" {c2:.3f} ms per CLI sequence (quartiles {c1:.3f} .. {c3:.3f})"
        )
    print(
        f"b/a median {result['median_b_over_a']} per call ({result['cpu_median_b_over_a']} in CPU time),"
        f" {result['load_median_b_over_a']} per load,"
        f" {result['cli_median_b_over_a']} per CLI sequence; b won {result['b_wins']}/{args.pairs} calls"
        f" and {result['cli_b_wins']}/{args.pairs} CLI sequences; same reports: {same}, same CLI files: {same_files}"
    )
    print(json.dumps(result))
    return 0 if same and same_files else 1


if __name__ == "__main__":
    sys.exit(main())
