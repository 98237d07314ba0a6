import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hstmatch.hst as hst
from helpers import height1_tree, random_tree, reference_frt_embed, reference_zero_distance_classes
from hstmatch.generators import euclidean_metric, line_metric, uniform_metric
from hstmatch.hst import (
    EmbeddingParams,
    RawTree,
    attach_servers,
    frt_embed,
    lambda_for_n,
    normalize_hst,
    tree_distance,
    tree_to_dict,
    validate_hst,
)
from hstmatch.metric import FiniteMetric, Instance, validate_metric


def test_lambda_for_n():
    assert lambda_for_n(1) == 2.0
    assert lambda_for_n(3) == pytest.approx(2.0 * (1.0 + math.log(3)), rel=1e-12)
    assert lambda_for_n(3) == pytest.approx(4.197, abs=5e-4)
    assert lambda_for_n(100) == pytest.approx(11.210, abs=5e-4)
    with pytest.raises(ValueError):
        lambda_for_n(0)


def test_embedding_params_requires_lam_above_one():
    for lam in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            EmbeddingParams(lam=lam, seed=0)


def test_tree_distance_basics():
    t = height1_tree(3, lam=2.0, scale=1.5)
    a, b = t.point_leaf[0], t.point_leaf[1]
    assert tree_distance(t, a, a) == 0.0
    assert tree_distance(t, a, b) == pytest.approx(1.5 * 2.0)
    with pytest.raises(ValueError):
        tree_distance(t, t.root, a)


def test_tree_distance_meet_at_height_two():
    # Two subtrees under the root, lam = 3: 2 * (1 + 3) = 8.
    raw = RawTree(
        parent=[None, 0, 0, 1, 2],
        level=[2, 1, 1, 0, 0],
        leaf_point={3: 0, 4: 1},
        lam=3.0,
    )
    t = normalize_hst(raw)
    assert tree_distance(t, t.point_leaf[0], t.point_leaf[1]) == pytest.approx(8.0)


def test_normalize_is_identity_on_normal_trees():
    raw = RawTree(
        parent=[None, 0, 0, 1, 1, 2],
        level=[2, 1, 1, 0, 0, 0],
        leaf_point={3: 0, 4: 1, 5: 2},
        lam=2.0,
    )
    t = normalize_hst(raw)
    assert t.parent == (None, 0, 0, 1, 1, 2)
    assert t.level == (2, 1, 1, 0, 0, 0)
    assert t.leaf_point == {3: 0, 4: 1, 5: 2}
    validate_hst(t)


def test_normalize_extends_shallow_leaf_with_dummy_chain():
    # Root with one direct leaf child and one height-1 internal child.
    raw = RawTree(
        parent=[None, 0, 0, 2, 2],
        level=[2, 1, 1, 0, 0],
        leaf_point={1: 0, 3: 1, 4: 2},
        lam=2.0,
    )
    t = normalize_hst(raw)
    validate_hst(t)
    assert t.height == 2
    assert all(t.level[leaf] == 0 for leaf in t.leaves)
    assert len(t.leaves) == 3
    # The moved leaf hangs under a single-child dummy.
    moved = t.point_leaf[0]
    dummy = t.parent[moved]
    assert t.children[dummy] == (moved,)
    # Distance between the two deep leaves is untouched; distances to the
    # moved leaf grow by exactly the inserted leaf edge weight (1 per side).
    assert tree_distance(t, t.point_leaf[1], t.point_leaf[2]) == pytest.approx(2.0)
    assert tree_distance(t, t.point_leaf[0], t.point_leaf[1]) == pytest.approx(2 * (1 + 2.0))


def test_normalize_single_leaf_gets_dummy_root():
    raw = RawTree(parent=[None], level=[0], leaf_point={0: 0}, lam=2.0)
    t = normalize_hst(raw)
    validate_hst(t)
    assert t.height == 1
    assert len(t.leaves) == 1
    assert t.leaf_point[t.point_leaf[0]] == 0


def test_normalize_rejects_cycles_and_disconnection():
    with pytest.raises(ValueError):
        normalize_hst(RawTree(parent=[None, 2, 1], level=[1, 0, 0], leaf_point={1: 0, 2: 1}, lam=2.0))
    with pytest.raises(ValueError):
        normalize_hst(RawTree(parent=[None, 0, None], level=[1, 0, 0], leaf_point={1: 0, 2: 1}, lam=2.0))
    with pytest.raises(ValueError):  # level gap
        normalize_hst(RawTree(parent=[None, 0], level=[2, 0], leaf_point={1: 0}, lam=2.0))


def test_validate_hst_catches_tampering():
    import dataclasses

    t = height1_tree(2)
    broken = dataclasses.replace(t, level=(1, 0, 1))
    with pytest.raises(ValueError):
        validate_hst(broken)


def test_frt_single_point_metric():
    t = frt_embed(FiniteMetric.from_matrix([[0.0]]), EmbeddingParams(lam=2.0, seed=5))
    validate_hst(t)
    assert t.height == 1 and len(t.leaves) == 1
    assert t.point_leaf[0] in t.leaves


def test_frt_two_point_domination_all_seeds():
    m = FiniteMetric.from_matrix([[0, 5], [5, 0]])
    for lam in (1.5, 2.0, 7.3):
        for seed in range(25):
            t = frt_embed(m, EmbeddingParams(lam=lam, seed=seed))
            validate_hst(t)
            assert tree_distance(t, t.point_leaf[0], t.point_leaf[1]) >= 5.0


def test_frt_uniform_eight_points_mean_stretch():
    # All distances one; the embedded tree pays 2 * lam deterministically,
    # far inside the Monte Carlo envelope.
    m = uniform_metric(8)
    total = 0.0
    trials = 10_000
    for seed in range(trials):
        t = frt_embed(m, EmbeddingParams(lam=2.0, seed=seed))
        total += tree_distance(t, t.point_leaf[0], t.point_leaf[1])
    envelope = 16 * 2.0 * math.log(8) / math.log(2.0)
    assert total / trials <= envelope


def test_frt_domination_on_random_metrics():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = euclidean_metric(rng.random((12, 2)))
        t = frt_embed(m, EmbeddingParams(lam=2.0, seed=seed + 1000))
        validate_hst(t)
        for i in range(12):
            for j in range(i + 1, 12):
                dt = tree_distance(t, t.point_leaf[i], t.point_leaf[j])
                assert dt >= m.dist[i, j] * (1 - 1e-12)


def test_frt_reproducible_and_seed_sensitive():
    rng = np.random.default_rng(123)
    m = euclidean_metric(rng.random((10, 2)))
    p = EmbeddingParams(lam=2.0, seed=77)
    a = frt_embed(m, p)
    b = frt_embed(m, p)
    assert (a.parent, a.level, a.leaf_point, a.scale) == (b.parent, b.level, b.leaf_point, b.scale)
    structures = {frt_embed(m, EmbeddingParams(lam=2.0, seed=s)).parent for s in range(10)}
    assert len(structures) > 1


def test_frt_coincident_points_share_a_leaf():
    d = [[0, 0, 3], [0, 0, 3], [3, 3, 0]]
    t = frt_embed(FiniteMetric.from_matrix(d), EmbeddingParams(lam=2.0, seed=0))
    assert t.point_leaf[0] == t.point_leaf[1] != t.point_leaf[2]
    assert tree_distance(t, t.point_leaf[0], t.point_leaf[2]) >= 3.0


@st.composite
def euclidean_metrics(draw):
    """Integer grid points with repeats; a repeated point sits at distance zero."""
    base = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=24))
    return euclidean_metric([base[i] for i in picks])


def line_metrics():
    return st.lists(st.integers(0, 60), min_size=1, max_size=24).map(line_metric)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    metric=st.one_of(euclidean_metrics(), line_metrics()),
    lam=st.sampled_from([1.05, 1.3, 2.0, 2.5, 4.2, 11.2]),
    seed=st.integers(0, 2**32 - 1),
)
@example(metric=line_metric([7.0]), lam=2.0, seed=0)  # k = 1
@example(metric=line_metric([7.0, 7.0]), lam=2.0, seed=0)  # k = 1 from two points
@example(metric=line_metric([0.0, 3.0]), lam=2.0, seed=1)  # k = 2
@example(metric=line_metric([0.0, 0.0, 3.0, 3.0, 24.0]), lam=2.0, seed=2)  # diameter a power of lam
def test_frt_embed_matches_cluster_by_cluster_reference(metric, lam, seed):
    params = EmbeddingParams(lam=lam, seed=seed)
    got = frt_embed(metric, params)
    want = reference_frt_embed(metric, params)
    for field in ("parent", "children", "level", "leaf_point", "point_leaf", "scale", "height"):
        assert getattr(got, field) == getattr(want, field), field
    validate_hst(got)


def test_frt_zero_distance_classes_computed_once_per_metric(monkeypatch):
    calls = []
    original = hst._zero_distance_classes
    monkeypatch.setattr(hst, "_zero_distance_classes", lambda d: calls.append(d.shape) or original(d))
    m = line_metric([0.0, 1.0, 1.0, 4.0])
    first = frt_embed(m, EmbeddingParams(lam=2.0, seed=1))
    frt_embed(m, EmbeddingParams(lam=3.0, seed=2))
    assert frt_embed(m, EmbeddingParams(lam=2.0, seed=1)).parent == first.parent
    assert calls == [(4, 4)]


def slack_dist(points) -> np.ndarray:
    """Points (macro, micro) plus a far point at macro 1000, whose distance sets the triangle slack.

    Points with the same macro sit micro * 1e-12 apart, rounded to zero when
    their micros differ by at most one, so zero distance need not be
    transitive: micros 0, 1, 2 give d(a, b) = d(b, c) = 0 < d(a, c).
    """
    points = list(points) + [(1000, 0)]
    n = len(points)
    d = np.zeros((n, n))
    for i, (mi, ui) in enumerate(points):
        for j, (mj, uj) in enumerate(points):
            if mi != mj:
                d[i, j] = abs(mi - mj)
            elif abs(ui - uj) > 1:
                d[i, j] = abs(ui - uj) * 1e-12
    return d


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), min_size=1, max_size=16))
@example(points=[(0, 0), (0, 1), (0, 2)])  # a ~ b ~ c, a !~ c: b joins a, c starts a class of its own
@example(points=[(0, 1), (0, 0), (0, 2)])  # the same points, b first: b's class takes a and c
@example(points=[(0, 0), (0, 0), (1, 0), (0, 0)])  # repeats only
def test_zero_distance_classes_match_the_greedy_scan(points):
    d = slack_dist(points)
    assert validate_metric(d) is None
    assert hst._zero_distance_classes(d) == reference_zero_distance_classes(d)


def test_frt_refuses_trees_beyond_the_node_budget():
    m = line_metric(np.arange(8.0))
    # lam barely above 1 asks for about ln(7) / 1e-7 levels.
    with pytest.raises(ValueError, match="MAX_TREE_NODES"):
        frt_embed(m, EmbeddingParams(lam=1.0000001, seed=0))


@pytest.mark.parametrize(
    "coords",
    [
        [0.0, 1e-200, 1e200],  # d_max / d_min overflows
        [0.0, 1.0, 1e308],  # finite spread, but lam**height overflows
        [0.0, 1.7e308],  # scale = lam * d_min overflows
    ],
)
def test_frt_refuses_spreads_beyond_the_float_range(coords):
    with pytest.raises(ValueError, match="floating-point range"):
        frt_embed(line_metric(coords), EmbeddingParams(lam=2.0, seed=0))


def test_tree_distance_is_a_metric_on_leaves():
    rng = np.random.default_rng(17)
    for height in (1, 2, 3):
        t = random_tree(rng, height, lam=3.0, scale=0.5)
        leaves = t.leaves
        for a in leaves:
            for b in leaves:
                dab = tree_distance(t, a, b)
                assert dab == tree_distance(t, b, a)
                assert (dab == 0.0) == (a == b)
                for c in leaves:
                    assert dab <= tree_distance(t, a, c) + tree_distance(t, c, b) + 1e-12


def test_tree_distance_matches_closed_form():
    rng = np.random.default_rng(5)
    for height in (1, 2, 3):
        t = random_tree(rng, height, lam=2.5, scale=1.25)
        leaves = t.leaves
        for a in leaves:
            for b in leaves:
                # Independent meet computation from root paths.
                path = set()
                v = a
                while v is not None:
                    path.add(v)
                    v = t.parent[v]
                v = b
                while v not in path:
                    v = t.parent[v]
                meet = t.level[v]
                expect = t.scale * 2.0 * math.fsum(t.lam ** (i - 1) for i in range(1, meet + 1))
                assert tree_distance(t, a, b) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_attach_servers_counts():
    m = uniform_metric(3)
    t = frt_embed(m, EmbeddingParams(lam=2.0, seed=1))
    inst = Instance(metric=m, servers=(0, 0, 1), requests=(2, 0, 1))
    t = attach_servers(t, inst)
    assert t.leaf_multiplicity[t.point_leaf[0]] == 2
    assert t.leaf_multiplicity[t.point_leaf[1]] == 1
    assert t.leaf_multiplicity[t.point_leaf[2]] == 0
    assert t.total_multiplicity() == 3


def test_attach_servers_all_on_one_leaf():
    m = uniform_metric(2)
    t = frt_embed(m, EmbeddingParams(lam=2.0, seed=1))
    inst = Instance(metric=m, servers=(1, 1, 1, 1), requests=(0, 0, 0, 0))
    t = attach_servers(t, inst)
    assert t.leaf_multiplicity[t.point_leaf[1]] == 4


def test_attach_servers_missing_point_errors():
    m3 = uniform_metric(3)
    m2 = uniform_metric(2)
    t = frt_embed(m2, EmbeddingParams(lam=2.0, seed=0))  # leaves carry points 0 and 1 only
    inst = Instance(metric=m3, servers=(0, 2), requests=(1, 1))
    with pytest.raises(ValueError):
        attach_servers(t, inst)


def test_tree_dump_schema():
    m = uniform_metric(3)
    t = attach_servers(
        frt_embed(m, EmbeddingParams(lam=2.0, seed=2)),
        Instance(metric=m, servers=(0, 1, 2), requests=(0, 1, 2)),
    )
    dump = tree_to_dict(t)
    assert set(dump) == {"lambda", "scale", "height", "nodes"}
    assert dump["nodes"][0]["parent"] is None
    for node in dump["nodes"]:
        assert set(node) == {"id", "parent", "level", "leaf_point", "multiplicity"}
    mults = [n["multiplicity"] for n in dump["nodes"] if n["multiplicity"] is not None]
    assert sum(mults) == 3
