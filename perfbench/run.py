#!/usr/bin/env python3
"""Benchmark of the hstmatch CLI on seeded workloads.

    python3 perfbench/run.py --workload euclid-embed --seed 1 --seconds 36 --trace 0

Run from the root of a checkout (the program is taken from ./src). Every
command runs in a fresh child process, one at a time. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run. The last line of standard output is the JSON result; the lines
before it are a table of every metric with its unit and the run's metadata.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import calibrate
import check
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
CHILD_TIMEOUT_S = 170.0
THROUGHPUT_SHARE = 1 / 24  # seconds of timed run_pipeline calls per round, per second of run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One seeded input set and the CLI command sequence a user would run on it."""

    instance: Callable | None  # seed -> instance dict for `hstmatch run`
    throughput_episodes: int  # episodes of each timed run_pipeline call
    runs: tuple = ()  # (algorithm, episodes) of each `hstmatch run`
    sweep: tuple = ()  # (family, sizes, algorithms, episodes) of `hstmatch sweep`
    throughput_instance: Callable | None = None  # seed -> instance for run_pipeline


def workloads(smoke: bool = False) -> dict:
    """The benchmark's workloads; ``smoke`` shrinks every size to run in seconds."""
    if smoke:
        return {
            "euclid-embed": Workload(lambda s: inputs.cloud(s, 12), runs=(("rwgm", 3),), throughput_episodes=2),
            "depot-serve": Workload(
                lambda s: inputs.depots(s, 3, 4, 10),
                runs=(("rwgm", 3), ("rwgm-proportional", 2)),
                throughput_episodes=2,
            ),
            "line-sweep": Workload(
                None,
                sweep=("line", (4, 8), ("rwgm", "greedy", "optimal"), 3),
                throughput_instance=lambda s: inputs.line(s, 8),
                throughput_episodes=2,
            ),
        }
    return {
        # Embedding dominates an episode: 256 distinct server points per tree.
        "euclid-embed": Workload(lambda s: inputs.cloud(s, 256), runs=(("rwgm", 100),), throughput_episodes=20),
        # 16 server points of multiplicity 32: embedding is nearly free and
        # serving plus per-request bookkeeping dominate, under both policies.
        "depot-serve": Workload(
            lambda s: inputs.depots(s, 16, 32, 256),
            runs=(("rwgm", 150), ("rwgm-proportional", 75)),
            throughput_episodes=50,
        ),
        # Instance generation and the cubic metric check dominate.
        "line-sweep": Workload(
            None,
            sweep=("line", (96, 192, 288), ("rwgm", "greedy", "optimal"), 10),
            throughput_instance=lambda s: inputs.line(s, 96),
            throughput_episodes=50,
        ),
    }


@dataclass(frozen=True)
class Command:
    argv: tuple  # hstmatch arguments
    outputs: tuple  # files written, relative to the sequence directory
    algorithm: str = ""
    episodes: int = 0


def commands(wl: Workload, seed: int, instance_path: Path, episodes: int | None = None) -> list:
    """The workload's command sequence; ``episodes`` overrides every episode count."""
    if wl.sweep:
        family, sizes, algorithms, eps = wl.sweep
        argv = (
            "sweep", "--family", family, "--sizes", ",".join(map(str, sizes)),
            "--algorithms", ",".join(algorithms), "--episodes", str(episodes or eps),
            "--seed", str(seed), "-o", "sweep.csv",
        )
        return [Command(argv, ("sweep.csv",))]
    out = []
    for i, (algorithm, eps) in enumerate(wl.runs):
        trace, report = f"trace{i}.csv", f"report{i}.json"
        argv = (
            "run", "--instance", str(instance_path), "--algorithm", algorithm,
            "--episodes", str(episodes or eps), "--seed", str(seed), "-o", trace, "--report", report,
        )
        out.append(Command(argv, (trace, report), algorithm, episodes or eps))
    return out


# ---------------------------------------------------------------- children


@dataclass
class Child:
    wall_s: float
    rss_kb: int
    code: int
    stdout: str
    stderr: str


def child_env(cap: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(cap)
    return env


def run_child(argv, cwd: Path, env: dict) -> Child:
    """Run one child to completion; wall time and max RSS are its own."""
    out_path, err_path = cwd / ".child.out", cwd / ".child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Child(wall_s, usage.ru_maxrss, proc.returncode, stdout, stderr)


@dataclass
class Sequence:
    wall_s: float
    rss_kb: int
    children: list
    files: dict  # output name -> bytes


def run_sequence(cmds, cwd: Path, env: dict, traced: bool = False) -> Sequence:
    if cwd.exists():
        shutil.rmtree(cwd)
    cwd.mkdir(parents=True)
    children = []
    for i, cmd in enumerate(cmds):
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), f".record{i}.json", "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "hstmatch", *cmd.argv]
        children.append(run_child(argv, cwd, env))
    files = {}
    for cmd in cmds:
        for name in cmd.outputs:
            path = cwd / name
            files[name] = path.read_bytes() if path.exists() else b""
    return Sequence(
        sum(c.wall_s for c in children), max(c.rss_kb for c in children), children, files
    )


# ---------------------------------------------------------------- checks


class Verifier:
    """Checks outputs from outside and counts attempted and failed operations.

    An operation is a CLI command, an episode of a trace, a sweep row, or a
    timed run_pipeline call. Identical bytes get identical verdicts, so each
    distinct output is parsed once; every repetition must replay the first
    one byte for byte.
    """

    def __init__(self, instance: dict | None, seed: int) -> None:
        self.instance = instance
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._opt = None
        self._verdicts: dict = {}
        self._first: dict = {}

    @property
    def opt(self) -> float:
        if self._opt is None:
            self._opt = check.optimum(self.instance)
        return self._opt

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def command(self, key: str, cmd: Command, child: Child, files: dict) -> None:
        """Count and check one command; ``key`` names its slot for replay checks."""
        outputs = check.digest({n: files[n] for n in cmd.outputs})
        if outputs not in self._verdicts:
            self._verdicts[outputs] = self._check(cmd, files)
        ops, bad, problems = self._verdicts[outputs]
        problems = list(problems)
        if child.code != 0:
            problems.append(f"exit code {child.code}")
        if any(line.startswith('{"error"') for line in child.stderr.splitlines()):
            problems.append("error line on stderr")
        if cmd.outputs[-1].startswith("report"):
            printed = check.parse_report(child.stdout.strip().split("\n")[-1])
            if printed != check.parse_report(files[cmd.outputs[-1]].decode("utf-8", "replace")):
                problems.append("printed report differs from the report file")
        if self._first.setdefault(key, outputs) != outputs:
            problems.append("outputs differ from an earlier run of the same command")
        self.attempted += 1 + ops
        self.failed += bad
        if problems:
            self.fail(f"{key} ({cmd.argv[0]}): " + "; ".join(problems[:3]))

    def _check(self, cmd: Command, files: dict):
        text = {n: files[n].decode("utf-8", "replace") for n in cmd.outputs}
        if cmd.argv[0] == "sweep":
            argv = dict(zip(cmd.argv[1::2], cmd.argv[2::2]))
            sizes = [int(s) for s in argv["--sizes"].split(",")]
            algorithms = argv["--algorithms"].split(",")
            problems, bad = check.check_sweep(text["sweep.csv"], sizes, algorithms)
            return len(sizes) * len(algorithms), bad, problems
        trace_name, report_name = cmd.outputs
        problems, bad, totals = check.check_trace(text[trace_name], self.instance, cmd.episodes, self.opt)
        report = check.parse_report(text[report_name])
        if report is None:
            problems.append("report: not JSON")
        else:
            problems += check.check_report(report, totals, self.opt, cmd.algorithm, cmd.episodes, self.seed)
        return cmd.episodes, bad, problems

    def sequence(self, tag: str, cmds, seq: Sequence) -> str:
        for i, (cmd, child) in enumerate(zip(cmds, seq.children)):
            self.command(f"{tag}[{i}]", cmd, child, seq.files)
        return check.digest(seq.files)


# ---------------------------------------------------------------- runs


def throughput_input(wl, seed, work, verifier) -> tuple:
    """(instance path, optimum) for the throughput child, written once per run."""
    if wl.throughput_instance is None:
        return work / "instance.json", verifier.opt
    instance = wl.throughput_instance(seed)
    inputs.write(instance, work / "throughput.json")
    return work / "throughput.json", check.optimum(instance)


def run_throughput(wl, seed, tp_input, work, env, budget_s, verifier) -> tuple:
    """Timed run_pipeline calls in one warm child; returns (seconds per call, probes, rss)."""
    path, opt = tp_input
    argv = [sys.executable, str(HERE / "throughput.py"), str(path), str(wl.throughput_episodes), str(seed), str(budget_s)]
    child = run_child(argv, work, env)
    verifier.attempted += 1
    try:
        result = json.loads(child.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        verifier.fail(f"throughput child failed (exit {child.code}): {child.stderr.strip()[-300:]}")
        return [], [], child.rss_kb
    verifier.attempted += len(result["seconds"])
    problems = check.check_throughput(result["reports"], opt, wl.throughput_episodes, seed)
    if not Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
        problems.append(f"hstmatch imported from {result['package']}, not from {SRC}")
    if child.code != 0 or problems:
        verifier.fail("; ".join(problems) or f"throughput child exit code {child.code}")
    return result["seconds"], result["probes"], child.rss_kb


def pinned_digests(workload: str, seed: int) -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed), {})


def check_pinned(verifier: Verifier, workload: str, seed: int, digests: dict) -> None:
    """Fail the run for every sequence whose outputs differ from the digest pinned for ``seed``."""
    for tag, expected in pinned_digests(workload, seed).items():
        if digests.get(tag) != expected:
            verifier.fail(f"{tag} outputs do not match the digest pinned for seed {seed}")


def measure(name, wl, seed, seconds, work, env, verifier, smoke) -> tuple:
    """Untraced run: rounds of the whole sequence (three times), the --episodes 1
    sequence and a warm throughput child, repeated until --seconds are used."""
    instance_path = work / "instance.json"
    full, setup = commands(wl, seed, instance_path), commands(wl, seed, instance_path, episodes=1)
    deadline = time.perf_counter() + seconds
    tp_input = throughput_input(wl, seed, work, verifier)
    keys = ("wall_s", "setup_s", "run_pipeline_s", "throughput_probes", "scaled_run_pipeline_s")
    samples = {key: [] for key in keys}
    rss_all = []
    digests = {}
    while True:
        t0 = time.perf_counter()
        # wall_s gets the most samples: its spread is gated, setup_s's is not.
        for tag, cmds in (("full", full), ("setup", setup), ("full", full), ("full", full)):
            seq = run_sequence(cmds, work / tag, env)
            digests[tag] = verifier.sequence(tag, cmds, seq)
            rss_all.append(seq.rss_kb)
            samples["wall_s" if tag == "full" else "setup_s"].append(seq.wall_s)
        timings, probes, rss = run_throughput(wl, seed, tp_input, work, env, THROUGHPUT_SHARE * seconds, verifier)
        samples["run_pipeline_s"] += timings
        samples["throughput_probes"] += probes
        samples["scaled_run_pipeline_s"] += [calibrate.scaled(t, pair) for t, pair in zip(timings, zip(probes, probes[1:]))]
        rss_all.append(rss)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    if not smoke:
        check_pinned(verifier, name, seed, digests)
    # Scaled to reference speed by the calibration probes, which takes out
    # most of the slow spells of a shared machine; README.md gives the
    # measurements behind each choice. episodes_per_s: the median call, each
    # call scaled by the probes on either side of it. wall_s: the shortest
    # full sequence of the run, setup_s: the median set-up, both scaled by
    # the run's median probe, as CLI children follow the probes only over a
    # whole run and only in part (calibrate.CLI_ELASTICITY).
    calls, probes = samples["scaled_run_pipeline_s"], samples["throughput_probes"]
    cli = calibrate.CLI_ELASTICITY
    metrics = {
        "wall_s": (calibrate.scaled(min(samples["wall_s"]), probes, cli), "s"),
        "setup_s": (calibrate.scaled(statistics.median(samples["setup_s"]), probes, cli), "s"),
        "episodes_per_s": (wl.throughput_episodes / statistics.median(calls) if calls else float("nan"), "1/s"),
        "peak_rss_mb": (max(rss_all) / 1024.0, "MB"),
    }
    return metrics, samples, digests


def traced(wl, seed, seconds, work, env, verifier) -> tuple:
    """Alternate untraced and traced sequences; per-layer metrics are medians."""
    cmds = commands(wl, seed, work / "instance.json")
    deadline = time.perf_counter() + seconds
    rounds, untraced_walls, traced_walls = [], [], []
    while True:
        t0 = time.perf_counter()
        plain = run_sequence(cmds, work / "plain", env)
        verifier.sequence("full", cmds, plain)
        seq = run_sequence(cmds, work / "traced", env, traced=True)
        verifier.sequence("full", cmds, seq)  # traced outputs must replay untraced ones
        records = []
        for i in range(len(cmds)):
            path = work / "traced" / f".record{i}.json"
            if path.exists():
                records.append(json.loads(path.read_text()))
        if len(records) == len(cmds):
            untraced_walls.append(plain.wall_s)
            traced_walls.append(seq.wall_s)
            rounds.append(spans.layer_metrics(spans.merge(records), seq.wall_s))
        else:
            verifier.fail("traced child wrote no record: " + seq.children[len(records)].stderr.strip()[-300:])
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    if not rounds:
        return {}, {}
    metrics = {key: statistics.median([r[key] for r in rounds]) for key in rounds[0]}
    metrics["trace_overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    samples = {"untraced_wall_s": untraced_walls, "traced_wall_s": traced_walls}
    return metrics, samples


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def metadata(args, cap: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "child_thread_cap": cap,
        "children": "one at a time",
        "src_lines": src_lines(),
    }


def per_layer_units() -> dict:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    table = workloads(args.smoke)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(table)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "hstmatch" / "__init__.py").is_file():
        print(f"run.py: no hstmatch package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    wl = table[args.workload]
    cap = len(os.sched_getaffinity(0))
    env = child_env(cap)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        meta = metadata(args, cap)
        instance = wl.instance(args.seed) if wl.instance else None
        if instance is not None:
            inputs.write(instance, work / "instance.json")
        warm = run_child([sys.executable, "-c", "import hstmatch.cli"], work, env)
        if warm.code != 0:
            print(f"run.py: cannot import hstmatch.cli:\n{warm.stderr}", file=sys.stderr)
            return 2
        verifier = Verifier(instance, args.seed)
        if args.trace:
            units = per_layer_units()
            values, samples = traced(wl, args.seed, args.seconds, work, env, verifier)
            if set(values) != set(units):
                print(f"run.py: traced run produced {sorted(set(units) - set(values))} missing", file=sys.stderr)
                return 1
            metrics = {k: (values[k], units[k]) for k in units}
        else:
            metrics, samples, digests = measure(
                args.workload, wl, args.seed, args.seconds, work, env, verifier, args.smoke
            )
            meta["digests"] = digests
        meta["samples"] = samples
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    if any(v != v for v, _ in metrics.values()):  # NaN: a metric could not be measured
        print("run.py: " + "; ".join(verifier.problems or ["a metric could not be measured"]), file=sys.stderr)
        return 1
    for problem in verifier.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:13} {key:{width}} {value:14.6g} {unit}")
    failed_frac = verifier.failed / max(verifier.attempted, 1)
    print(f"{args.workload:13} {'failed_frac':{width}} {failed_frac:14.6g} ({verifier.failed}/{verifier.attempted})")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": verifier.failed == 0 and not verifier.problems,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
