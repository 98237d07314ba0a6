import sys
import types

import pytest

import spans
import traced


def test_self_time_subtracts_children_on_a_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["a.x", 1.5, 2.5, 1],
        ["b", 4.0, 6.0, 0],
        ["leaf", 7.0, 7.5, -1],
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 1.0, 1.0, 2.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    tree = [["p", 0.0, 10.0, -1], ["c1", 1.0, 5.0, 0], ["c2", 3.0, 7.0, 0], ["c3", 9.0, 12.0, 0]]
    # Children cover [1, 7] and [9, 10] of the parent's interval.
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_recorder_nests_spans_and_aggregates_by_name():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [s[0] for s in rec.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    named = spans.by_name(rec.spans)
    assert len(named["inner"]["dur"]) == 2
    assert named["outer"]["self"][0] <= named["outer"]["dur"][0]


def test_layer_metrics_report_absent_layers_as_zero():
    rec = spans.merge([{"import_s": 0.5, "wall_s": 1.0, "spans": {}, "counts": {}}])
    metrics = spans.layer_metrics(rec, traced_wall_s=1.2)
    assert metrics["cli.import_s"] == 0.5
    assert metrics["online.rwgm_serve.calls"] == 0
    assert metrics["generators.generate_instance.wall_frac"] == 0


def test_lca_level_climbs_to_the_common_ancestor():
    tree = types.SimpleNamespace(parent=(None, 0, 0, 1, 1, 2))
    assert traced.lca_level(tree, 3, 3) == 0
    assert traced.lca_level(tree, 3, 4) == 1
    assert traced.lca_level(tree, 3, 5) == 2


def test_install_wraps_targets_and_fails_loudly_on_a_missing_name(monkeypatch):
    def public(x):
        return 2 * x

    public.__module__ = "fakepkg.layer"
    module = types.ModuleType("fakepkg.layer")
    module.public = public
    monkeypatch.setitem(sys.modules, "fakepkg.layer", module)

    monkeypatch.setattr(traced, "TARGETS", (("fakepkg.layer", "public"),))
    rec = spans.Recorder()
    traced.install(rec, traced.Observations())
    assert module.public(4) == 8
    assert rec.spans[0][0] == "layer.public"

    monkeypatch.setattr(traced, "TARGETS", (("fakepkg.layer", "renamed_away"),))
    with pytest.raises(SystemExit, match="renamed_away"):
        traced.install(spans.Recorder(), traced.Observations())
