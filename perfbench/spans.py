"""In-memory spans, self time, and the per-layer metrics derived from them.

A span is ``[name, start, end, parent]`` where ``parent`` is the index of the
enclosing span or -1. Spans are recorded around calls into the program by
wrappers that the traced child installs; nothing here imports the program.
"""
from __future__ import annotations

import statistics
import time


class Recorder:
    """Collects spans for one process; ``wrap`` returns a timing wrapper."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, observe=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children: list = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        kids = [(max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]]
        out.append((end - start) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def by_name(spans) -> dict:
    """{name: {"dur": [...], "self": [...]}} in call order."""
    selfs = self_times(spans)
    out: dict = {}
    for (name, start, end, _), own in zip(spans, selfs):
        entry = out.setdefault(name, {"dur": [], "self": []})
        entry["dur"].append(end - start)
        entry["self"].append(own)
    return out


def merge(records) -> dict:
    """Concatenate the per-process records of one workload round."""
    merged = {"import_s": 0.0, "wall_s": 0.0, "spans": {}, "counts": {}}
    for rec in records:
        merged["import_s"] += rec["import_s"]
        merged["wall_s"] += rec["wall_s"]
        for name, entry in rec["spans"].items():
            dst = merged["spans"].setdefault(name, {"dur": [], "self": []})
            dst["dur"].extend(entry["dur"])
            dst["self"].extend(entry["self"])
        for key, value in rec["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + value
    return merged


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(rec: dict, traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced round, named as in BENCHMARK.json.

    ``_s`` names are totals over the round's command sequence, ``_ms``/``_us``
    names without a percentile are means per call. A layer the workload never
    calls reads 0. ``trace_overhead_frac`` needs the untraced runs and is
    added by the caller.
    """
    spans, counts = rec["spans"], rec["counts"]

    def durs(name, key="dur"):
        return spans.get(name, {}).get(key, [])

    def total(name, key="dur"):
        return sum(durs(name, key))

    def mean(name):
        d = durs(name)
        return _ratio(sum(d), len(d))

    episode_s = total("harness.run_episode")
    return {
        "cli.import_s": rec["import_s"],
        "cli.main.self_s": total("cli.main", "self"),
        "metric.load_instance_s": total("metric.load_instance"),
        "metric.validate_metric_s": total("metric.validate_metric"),
        "metric.validate_metric.points": counts.get("validate_points", 0),
        "metric.submetric_of_servers_s": total("metric.submetric_of_servers"),
        "generators.generate_instance.self_s": total("generators.generate_instance", "self"),
        "generators.generate_instance.wall_frac": _ratio(total("generators.generate_instance"), traced_wall_s),
        "oracle.optimal_matching_s": total("oracle.optimal_matching"),
        "online.discretize_all_s": total("online.discretize_all"),
        "online.rwgm_init_ms": 1e3 * mean("online.rwgm_init"),
        "online.rwgm_serve.us_p50": 1e6 * _quantile(durs("online.rwgm_serve"), 0.5),
        "online.rwgm_serve.us_p99": 1e6 * _quantile(durs("online.rwgm_serve"), 0.99),
        "online.rwgm_serve.calls": len(durs("online.rwgm_serve")),
        "online.climb_level_mean": _ratio(counts.get("climb_levels", 0), counts.get("serves", 0)),
        "online.moves_frac": _ratio(counts.get("moves", 0), counts.get("serves", 0)),
        "online.run_greedy_s": total("online.run_greedy"),
        "hst.frt_embed.ms_p50": 1e3 * _quantile(durs("hst.frt_embed"), 0.5),
        "hst.frt_embed.ms_p90": 1e3 * _quantile(durs("hst.frt_embed"), 0.9),
        "hst.frt_embed.calls": len(durs("hst.frt_embed")),
        "hst.attach_servers_ms": 1e3 * mean("hst.attach_servers"),
        "hst.tree_nodes_mean": _ratio(counts.get("tree_nodes", 0), counts.get("trees", 0)),
        "hst.tree_height_mean": _ratio(counts.get("tree_height", 0), counts.get("trees", 0)),
        "hst.unary_nodes_mean": _ratio(counts.get("unary_nodes", 0), counts.get("trees", 0)),
        "harness.pipeline_setup.self_s": total("harness.pipeline_setup", "self"),
        "harness.run_episode.ms_p50": 1e3 * _quantile(durs("harness.run_episode"), 0.5),
        "harness.run_episode.self_ms_p50": 1e3 * _quantile(durs("harness.run_episode", "self"), 0.5),
        "harness.run_episode.embed_frac": _ratio(
            total("hst.frt_embed") + total("hst.attach_servers"), episode_s
        ),
        "harness.run_episode.serve_frac": _ratio(
            total("online.rwgm_init") + total("online.rwgm_serve") + total("harness.run_episode", "self"),
            episode_s,
        ),
        "harness.derive_seed_us": 1e6 * mean("harness.derive_seed"),
        "harness.trace_csv_s": total("harness.trace_csv"),
        "harness.trace_csv_bytes": counts.get("trace_bytes", 0),
        "harness.trace_rows": counts.get("trace_rows", 0),
    }
