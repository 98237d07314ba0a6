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
and sweep table written into that side's own temporary directory, and
deleted before each sequence outside the clock, so every file is written
new), which times the trace and report writing that ``run_pipeline``
skips. Both sides share the process, so a slow spell of a shared machine
hits them alike; the per-pair ratio is what to read. Each call is also timed in process CPU
seconds (``time.process_time``, every thread of the process): work moved
onto a second thread beside the call shows as lower wall time with CPU time
flat or higher. To show where a call's time goes, each pair also times, per
side, the optimum on its own (``optimal_matching`` on the loaded instance)
and an episodes-only call: ``run_pipeline`` with that side's
``harness.optimal_matching`` swapped for a function that returns the optimum
just solved, so the helper thread starts and joins at once. A call that takes
about as long as its solve alone is bounded by the solve. Each pair also runs
one staged call per side, with that side's ``harness.frt_embed``,
``attach_servers``, ``rwgm_init`` and ``run_episode`` wrapped in timers: the
serve loop of an episode is its ``run_episode`` time less the other three
stages. The same call times each block of ``harness._episode_streams`` (the
seed pass) and gives each of the block's episodes an equal share of it, as
the ``seeds`` stage, times its one ``harness.discretize_all`` call (each
request's image and the triangle check, one pass) as the ``images`` stage,
and its one ``harness.pipeline_setup`` call as the ``setup`` stage, which
the images are handed to and so leaves them out. The median of each stage,
per call for ``images`` and ``setup`` and per episode for the rest, is
printed per side in milliseconds; each stage's per-pair ratio is B's median
in that pair's staged call over A's, and the median of those ratios and the
number of pairs B won are printed per stage.
Prints each side's
median and quartiles in milliseconds for the call (wall and CPU), the
episodes-only call, the solve, the load and the CLI sequence, the median of
B/A for each, how many pairs B won, each side's load spread (quartile
distance over median, with the load ratio marked unresolved when the two
medians differ by less than either side's quartile distance), and whether
both sides returned the same reports and wrote the same bytes, with each side's ``src/`` line count (as
``wc -l src/hstmatch/*.py`` counts it); the last line is the same as JSON.
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

EPISODE_STAGES = ("frt_embed", "attach_servers", "rwgm_init")  # timed inside run_episode; the rest of it is "serve"
STAGES = ("images", "setup", "seeds", *EPISODE_STAGES, "serve")  # in the order a call runs them; the first two once


def load_package(src: Path, alias: str):
    """Import ``src/hstmatch`` as the top-level module ``alias``."""
    init = src / "hstmatch" / "__init__.py"
    spec = importlib.util.spec_from_file_location(alias, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def src_lines(src: Path) -> int:
    """Newlines in the package's modules, as ``wc -l src/hstmatch/*.py`` totals them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "hstmatch").glob("*.py"))


def run_commands(cli_main, cmds, workdir: Path) -> tuple:
    """Seconds for one CLI sequence run by ``cli_main`` in workdir (side "a" or "b"), and the bytes of every file it
    wrote. Its outputs are deleted first, outside the clock, so every file it writes is new: overwriting a file can
    wait for the filesystem to flush it (52-64 ms per file on an ext4 host), which would be timed as the CLI's."""
    workdir.mkdir(exist_ok=True)
    outputs = [workdir / name for cmd in cmds for name in cmd.outputs]
    for path in outputs:
        path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for cmd in cmds:
            argv = [str(workdir / a) if a in cmd.outputs else a for a in cmd.argv]
            if cli_main(argv) != 0:
                raise SystemExit(f"side {workdir.name}: hstmatch {' '.join(argv)} failed")
    elapsed = time.perf_counter() - t0
    return elapsed, {path.name: path.read_bytes() for path in outputs}


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
        return t1 - t0, wall_s, cpu_s, pkg.harness.report_to_dict(report), inst

    def solve_then_episodes(pkg, inst) -> tuple:
        """Seconds for the optimum alone, then for a call whose solve returns that optimum at once."""
        harness = pkg.harness
        solve = harness.optimal_matching
        t0 = time.perf_counter()
        om = solve(inst)
        t1 = time.perf_counter()
        harness.optimal_matching = lambda _inst: om
        try:
            pkg.run_pipeline(inst, args.seed, episodes)
        finally:
            harness.optimal_matching = solve
        return t1 - t0, time.perf_counter() - t1

    def staged_call(pkg, inst, stage_times: dict) -> None:
        """One episodes-only call with its stages timed, appending the call's images and setup seconds and each
        episode's seconds per stage; an episode's seeds are its block's seconds in ``_episode_streams`` divided
        over the block's episodes."""
        harness = pkg.harness
        per_call = {"discretize_all": "images", "pipeline_setup": "setup"}
        wrapped = (*EPISODE_STAGES, *per_call, "_episode_streams", "run_episode", "optimal_matching")
        saved = {name: getattr(harness, name) for name in wrapped}
        spent = dict.fromkeys(EPISODE_STAGES, 0.0)

        def timed(name):
            def call(*a, **kw):
                t0 = time.perf_counter()
                try:
                    return saved[name](*a, **kw)
                finally:
                    spent[name] += time.perf_counter() - t0
            return call

        def once(name):
            def call(*a, **kw):
                t0 = time.perf_counter()
                try:
                    return saved[name](*a, **kw)
                finally:
                    stage_times[per_call[name]].append(time.perf_counter() - t0)
            return call

        def streams(*a, **kw):
            blocks = saved["_episode_streams"](*a, **kw)
            while True:
                t0 = time.perf_counter()
                block = next(blocks, None)
                seconds = time.perf_counter() - t0
                if block is None:
                    return
                stage_times["seeds"].extend([seconds / len(block)] * len(block))
                yield block

        def episode(*a, **kw):
            spent.update(dict.fromkeys(spent, 0.0))
            t0 = time.perf_counter()
            served = saved["run_episode"](*a, **kw)
            total = time.perf_counter() - t0
            for name, seconds in spent.items():
                stage_times[name].append(seconds)
            stage_times["serve"].append(total - sum(spent.values()))
            return served

        om = saved["optimal_matching"](inst)
        for name in EPISODE_STAGES:
            setattr(harness, name, timed(name))
        for name in per_call:
            setattr(harness, name, once(name))
        harness._episode_streams = streams
        harness.run_episode, harness.optimal_matching = episode, lambda _inst: om
        try:
            pkg.run_pipeline(inst, args.seed, episodes)
        finally:
            for name, fn in saved.items():
                setattr(harness, name, fn)

    for s, pkg in enumerate(sides):  # warm-up: imports, caches, first-call costs
        load_and_call(pkg)
        run_commands(clis[s].main, cmds, workdirs[s])
    loads: tuple = ([], [])
    times: tuple = ([], [])
    cpu_times: tuple = ([], [])
    cli_times: tuple = ([], [])
    solve_times: tuple = ([], [])
    episode_times: tuple = ([], [])
    stage_times = tuple({name: [] for name in STAGES} for _ in sides)  # every sample
    stage_pairs = tuple({name: [] for name in STAGES} for _ in sides)  # each pair's median
    same = same_files = True
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        reports, files, insts = {}, {}, {}
        for s in order:
            load_s, call_s, cpu_s, reports[s], insts[s] = load_and_call(sides[s])
            loads[s].append(load_s)
            times[s].append(call_s)
            cpu_times[s].append(cpu_s)
        for s in order:
            solve_s, episodes_s = solve_then_episodes(sides[s], insts[s])
            solve_times[s].append(solve_s)
            episode_times[s].append(episodes_s)
        for s in order:
            staged = {name: [] for name in STAGES}
            staged_call(sides[s], insts[s], staged)
            for name, xs in staged.items():
                stage_times[s][name].extend(xs)
                stage_pairs[s][name].append(statistics.median(xs))
        for s in order:
            cli_s, files[s] = run_commands(clis[s].main, cmds, workdirs[s])
            cli_times[s].append(cli_s)
        same = same and reports[0] == reports[1]
        same_files = same_files and files[0] == files[1]
    tmp.cleanup()

    def quartiles_ms(xs) -> list:
        return [round(1e3 * x, 3) for x in statistics.quantiles(xs, n=4)]

    def spread(xs) -> float:
        """Quartile distance over the median."""
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        return round((q3 - q1) / q2, 4)

    ratios = [b / a for a, b in zip(*times)]
    cpu_ratios = [b / a for a, b in zip(*cpu_times)]
    load_ratios = [b / a for a, b in zip(*loads)]
    episode_ratios = [b / a for a, b in zip(*episode_times)]
    solve_ratios = [b / a for a, b in zip(*solve_times)]
    cli_ratios = [b / a for a, b in zip(*cli_times)]
    stage_ratios = {name: [b / a for a, b in zip(stage_pairs[0][name], stage_pairs[1][name])] for name in STAGES}
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
        "a_episodes_only_ms": quartiles_ms(episode_times[0]),
        "b_episodes_only_ms": quartiles_ms(episode_times[1]),
        "episodes_only_median_b_over_a": round(statistics.median(episode_ratios), 4),
        "a_solve_ms": quartiles_ms(solve_times[0]),
        "b_solve_ms": quartiles_ms(solve_times[1]),
        "solve_median_b_over_a": round(statistics.median(solve_ratios), 4),
        "a_load_ms": quartiles_ms(loads[0]),
        "b_load_ms": quartiles_ms(loads[1]),
        "load_median_b_over_a": round(statistics.median(load_ratios), 4),
        "a_load_spread": spread(loads[0]),
        "b_load_spread": spread(loads[1]),
        # Unresolved: the medians lie closer together than either side's quartile distance.
        "load_resolved": abs(statistics.median(loads[1]) - statistics.median(loads[0]))
        > max(statistics.median(xs) * spread(xs) for xs in loads),
        "a_cli_ms": quartiles_ms(cli_times[0]),
        "b_cli_ms": quartiles_ms(cli_times[1]),
        "cli_median_b_over_a": round(statistics.median(cli_ratios), 4),
        "cli_b_wins": sum(r < 1.0 for r in cli_ratios),
        "same_reports": same,
        "same_cli_files": same_files,
        "a_stage_ms": {name: round(1e3 * statistics.median(xs), 4) for name, xs in stage_times[0].items()},
        "b_stage_ms": {name: round(1e3 * statistics.median(xs), 4) for name, xs in stage_times[1].items()},
        "stage_median_b_over_a": {name: round(statistics.median(rs), 4) for name, rs in stage_ratios.items()},
        "stage_b_wins": {name: sum(r < 1.0 for r in rs) for name, rs in stage_ratios.items()},
        "a_src_lines": src_lines(args.a),
        "b_src_lines": src_lines(args.b),
    }
    for side in ("a", "b"):
        q1, q2, q3 = result[f"{side}_ms"]
        p1, p2, p3 = result[f"{side}_cpu_ms"]
        e1, e2, e3 = result[f"{side}_episodes_only_ms"]
        o1, o2, o3 = result[f"{side}_solve_ms"]
        l1, l2, l3 = result[f"{side}_load_ms"]
        c1, c2, c3 = result[f"{side}_cli_ms"]
        print(
            f"{side}: median {q2:.3f} ms per call (quartiles {q1:.3f} .. {q3:.3f}),"
            f" {p2:.3f} ms CPU per call (quartiles {p1:.3f} .. {p3:.3f}),"
            f" {e2:.3f} ms per episodes-only call (quartiles {e1:.3f} .. {e3:.3f}),"
            f" {o2:.3f} ms per solve (quartiles {o1:.3f} .. {o3:.3f}),"
            f" {l2:.3f} ms per load (quartiles {l1:.3f} .. {l3:.3f}),"
            f" {c2:.3f} ms per CLI sequence (quartiles {c1:.3f} .. {c3:.3f});"
            " stage medians (images and setup per call, the rest per episode): " + ", ".join(f"{k} {v:.4f} ms" for k, v in result[f"{side}_stage_ms"].items())
        )
    print(
        f"b/a median {result['median_b_over_a']} per call ({result['cpu_median_b_over_a']} in CPU time),"
        f" {result['episodes_only_median_b_over_a']} per episodes-only call,"
        f" {result['solve_median_b_over_a']} per solve,"
        f" {result['load_median_b_over_a']} per load (spread {result['a_load_spread']} and"
        f" {result['b_load_spread']}{'' if result['load_resolved'] else ', unresolved'}),"
        f" {result['cli_median_b_over_a']} per CLI sequence; b won {result['b_wins']}/{args.pairs} calls"
        f" and {result['cli_b_wins']}/{args.pairs} CLI sequences; stage b/a medians (pairs b won): "
        + ", ".join(
            f"{name} {ratio} ({result['stage_b_wins'][name]}/{args.pairs})"
            for name, ratio in result["stage_median_b_over_a"].items()
        )
        + f"; same reports: {same}, same CLI files: {same_files};"
        f" src/ lines {result['a_src_lines']} -> {result['b_src_lines']}"
    )
    print(json.dumps(result))
    return 0 if same and same_files else 1


if __name__ == "__main__":
    sys.exit(main())
