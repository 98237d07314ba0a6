"""Traced child: run one hstmatch CLI command in-process under timing wrappers.

    python3 perfbench/traced.py RECORD.json -- <hstmatch argv...>

Wrappers replace the module attributes through which callers reach each
public function (``hstmatch.harness.frt_embed`` is the name ``run_episode``
calls, for instance), so the program's own code is untouched. A target that
no longer exists is a hard error: the traced run must not silently measure
less than it claims. RECORD.json receives the import time, the in-process
wall time, per-name span durations and self times, and exact counts read
from the returned trees and serving decisions.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

from spans import Recorder, by_name

# (module whose attribute is replaced, attribute). The span is named after the
# function's home module, e.g. harness.frt_embed records as "hst.frt_embed".
TARGETS = (
    ("hstmatch.cli", "load_instance"),
    ("hstmatch.cli", "generate_instance"),
    ("hstmatch.cli", "run_algorithm"),
    ("hstmatch.cli", "sweep"),
    ("hstmatch.cli", "sweep_csv"),
    ("hstmatch.cli", "trace_csv"),
    ("hstmatch.harness", "generate_instance"),
    ("hstmatch.harness", "run_algorithm"),
    ("hstmatch.harness", "pipeline_setup"),
    ("hstmatch.harness", "run_episode"),
    ("hstmatch.harness", "derive_seed"),
    ("hstmatch.harness", "submetric_of_servers"),
    ("hstmatch.harness", "discretize_all"),
    ("hstmatch.harness", "optimal_matching"),
    ("hstmatch.harness", "frt_embed"),
    ("hstmatch.harness", "attach_servers"),
    ("hstmatch.harness", "rwgm_init"),
    ("hstmatch.harness", "rwgm_serve"),
    ("hstmatch.harness", "run_greedy"),
    ("hstmatch.metric", "validate_metric"),
)


def lca_level(tree, a: int, b: int) -> int:
    """Level of the lowest common ancestor of two leaves (0 when equal)."""
    level = 0
    while a != b:
        a, b = tree.parent[a], tree.parent[b]
        level += 1
    return level


class Observations:
    """Return values kept by reference during the run, reduced afterwards."""

    def __init__(self) -> None:
        self.points = 0
        self.trees: list = []
        self.serves: list = []
        self.trace_bytes = 0
        self.trace_rows = 0

    def validate_metric(self, args, _result) -> None:
        self.points += len(args[0])

    def frt_embed(self, _args, tree) -> None:
        self.trees.append(tree)

    def rwgm_serve(self, args, result) -> None:
        self.serves.append((args[0].tree, args[1], result[0]))

    def trace_csv(self, _args, text) -> None:
        self.trace_bytes += len(text.encode("utf-8"))
        self.trace_rows += text.count("\n") - 1

    def counts(self) -> dict:
        levels = [lca_level(tree, a, b) for tree, a, b in self.serves]
        return {
            "validate_points": self.points,
            "trees": len(self.trees),
            "tree_nodes": sum(t.n_nodes for t in self.trees),
            "tree_height": sum(t.height for t in self.trees),
            "unary_nodes": sum(sum(1 for c in t.children if len(c) == 1) for t in self.trees),
            "serves": len(levels),
            "climb_levels": sum(levels),
            "moves": sum(1 for lv in levels if lv > 0),
            "trace_bytes": self.trace_bytes,
            "trace_rows": self.trace_rows,
        }


def install(recorder: Recorder, obs: Observations) -> None:
    for module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            raise SystemExit(f"traced: {module_name}.{attr} no longer exists; update TARGETS")
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        setattr(module, attr, recorder.wrap(name, fn, getattr(obs, attr, None)))


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        raise SystemExit("usage: traced.py RECORD.json -- <hstmatch argv...>")
    record_path, cli_argv = argv[0], argv[2:]
    t0 = time.perf_counter()
    cli = importlib.import_module("hstmatch.cli")
    import_s = time.perf_counter() - t0

    recorder = Recorder()
    obs = Observations()
    install(recorder, obs)
    t1 = time.perf_counter()
    code = recorder.wrap("cli.main", cli.main)(cli_argv)
    wall_s = time.perf_counter() - t1
    record = {
        "import_s": import_s,
        "wall_s": wall_s,
        "spans": by_name(recorder.spans),
        "counts": obs.counts(),
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
