"""The public surface resolves: every exported name and every traced benchmark target exists."""
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hstmatch
from hstmatch import harness
from hstmatch.generators import GeneratorSpec, generate_instance
from hstmatch.hst import EmbeddingParams, HstTree, frt_embed
from hstmatch.metric import instance_from_dict, instance_to_dict
from hstmatch.online import rwgm_init, rwgm_serve

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(hstmatch.__path__, "hstmatch.") if m.name != "hstmatch.__main__"
)


def traced_targets() -> tuple:
    """perfbench/traced.py's TARGETS, read from its source without running it."""
    for node in ast.parse(TRACED.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACED}")


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, module_name
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    missing = [(m, a) for m, a in targets if not callable(getattr(importlib.import_module(m), a, None))]
    assert not missing, f"perfbench/traced.py TARGETS that no longer resolve: {missing}"


def test_the_tree_names_the_benchmark_reads_stay():
    # perfbench/traced.py reduces every drawn tree and serve through these names only: len(c) for each c in
    # tree.children, tree.n_nodes, tree.height, tree.parent (walked up from two leaves) and RwgmState.tree.
    inst = generate_instance(GeneratorSpec("line", 12, seed=3))
    setup = harness.pipeline_setup(inst)
    tree = frt_embed(setup.rest, EmbeddingParams(lam=setup.lam, seed=9))
    state = rwgm_init(tree, 4)
    assert state.tree is tree
    assert tree.n_nodes == len(tree.parent) == len(tree.children) > tree.height == tree.level[0] >= 1
    assert type(tree.height) is int
    assert [len(c) for c in tree.children] == [tree.parent.count(v) for v in range(tree.n_nodes)]
    assert tree.parent[0] is None and all(type(p) is int for p in tree.parent[1:])
    for q in setup.g_sub[len(setup.opening):]:
        a = leaf = tree.point_leaf[q]
        b, level = rwgm_serve(state, leaf)
        meet = 0
        while a != b:
            a, b = tree.parent[a], tree.parent[b]
            meet += 1
        assert level == meet


def test_a_tree_is_one_breadth_first_layout_of_tuples_and_ranges():
    fields = {f.name: f.type for f in dataclasses.fields(HstTree)}
    assert fields == {
        "lam": "float", "scale": "float", "height": "int", "parent": "tuple", "child_bounds": "tuple",
        "level_bounds": "tuple", "leaf_point": "tuple", "point_leaf": "tuple", "servers": "tuple",
    }
    assert not hasattr(HstTree, "is_leaf")  # a caller tests v in tree.leaves
    tree = frt_embed(harness.pipeline_setup(generate_instance(GeneratorSpec("line", 6, seed=1))).servers,
                     EmbeddingParams(lam=2.0, seed=0))
    assert type(tree.leaves) is range and tree.leaves == range(tree.first_leaf, tree.n_nodes)
    # children and level are views built on first read from the two offset tuples
    assert not {"children", "level"} & set(vars(tree))
    assert type(tree.children) is tuple and all(type(c) is range for c in tree.children)
    assert type(tree.level) is tuple and len(tree.level) == tree.n_nodes


def test_the_turning_point_chain_reads_the_tree_and_a_node_indexed_tau():
    from hstmatch import oracle

    signatures = {
        name: list(inspect.signature(getattr(oracle, name)).parameters)
        for name in ("turning_point_tau", "hst_cost_from_tau", "bound_rwgm_hst", "expected_moves_bound")
    }
    assert signatures == {
        "turning_point_tau": ["t", "requests"],
        "hst_cost_from_tau": ["t", "tau"],
        "bound_rwgm_hst": ["t", "tau"],
        "expected_moves_bound": ["t", "tau", "n"],
    }
    assert not hasattr(oracle, "TurningPointProfile") and not hasattr(hstmatch, "TurningPointProfile")
    assert not hasattr(HstTree, "subtree_sums")
    setup = harness.pipeline_setup(generate_instance(GeneratorSpec("line", 6, seed=1)))
    tree = frt_embed(setup.servers, EmbeddingParams(lam=2.0, seed=0))
    tau = oracle.turning_point_tau(tree, setup.g_sub)
    assert type(tau) is tuple and len(tau) == tree.n_nodes


def test_a_run_and_its_optimum_keep_one_copy_of_each_fact():
    # Costs are read from the instance's dist and requests from the instance, when a trace needs them.
    fields = ["algorithm", "master_seed", "opt", "served", "totals"]
    assert [f.name for f in dataclasses.fields(harness.RunRecord)] == fields
    assert [f.name for f in dataclasses.fields(hstmatch.OptimalMatching)] == ["served", "cost"]


def test_the_greedy_dict_scan_is_a_test_oracle_only():
    # run_greedy no longer calls it; tests/helpers.py keeps it as run_greedy's reference.
    assert not hasattr(importlib.import_module("hstmatch.online"), "greedy_serve")
    assert not hasattr(hstmatch, "greedy_serve")


def test_a_run_leaves_no_cache_on_its_metrics(monkeypatch):
    # A run's zero-distance classes live in PipelineSetup.servers, and no check marks a metric
    # as done: generated, loaded and submetric objects hold their points and distances only.
    metrics = []

    def submetric(inst, _fn=harness.submetric_of_servers):
        sub, mapping = _fn(inst)
        metrics.extend((inst.metric, sub))
        return sub, mapping

    monkeypatch.setattr(harness, "submetric_of_servers", submetric)
    generated = generate_instance(GeneratorSpec("euclidean", 6, seed=8))
    for inst in (generated, instance_from_dict(instance_to_dict(generated))):
        harness.run_pipeline(inst, master_seed=2, episodes=5)
    assert [sorted(vars(m)) for m in metrics] == [["dist", "points"]] * 4
