import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hstmatch.hst as hst
from helpers import (
    RawTree,
    height1_tree,
    level_pass_frt_embed,
    normalize_hst,
    random_tree,
    random_tree_instance,
    reference_frt_embed,
    reference_zero_distance_classes,
    subtree_server_counts,
    tree_distance,
    validate_hst,
    with_multiplicity,
)
from hstmatch.generators import euclidean_metric, line_metric, uniform_metric
from hstmatch.harness import pipeline_setup
from hstmatch.hst import (
    EmbeddingParams,
    HstTree,
    attach_servers,
    count_servers,
    frt_embed,
    lambda_for_n,
    tree_to_dict,
)
from hstmatch.metric import FiniteMetric, Instance, validate_metric


def test_lambda_for_n():
    assert lambda_for_n(1) == 2.0
    assert lambda_for_n(3) == pytest.approx(2.0 * (1.0 + math.log(3)), rel=1e-12)
    assert lambda_for_n(3) == pytest.approx(4.197, abs=5e-4)
    assert lambda_for_n(100) == pytest.approx(11.210, abs=5e-4)
    with pytest.raises(ValueError):
        lambda_for_n(0)
    assert lambda_for_n(np.int64(3)) == lambda_for_n(3)


@pytest.mark.parametrize("n", [True, 1.5, np.float64(2.0), "3", 0, -1, np.int64(0)])
def test_lambda_for_n_refuses_what_is_not_a_positive_integer(n):
    # True ran as n = 1 and 1.5 as a 1.5-server game.
    with pytest.raises(ValueError, match=f"^{re.escape(f'n must be a positive integer, got {n!r}')}$"):
        lambda_for_n(n)


def test_embedding_params_requires_lam_above_one():
    for lam in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            EmbeddingParams(lam=lam, seed=0)
    assert EmbeddingParams(lam=np.float64(2.5), seed=np.uint64(2**63)).seed == 2**63  # numpy scalars pass


@pytest.mark.parametrize(
    "lam, seed, message",
    [
        (2.0, None, "seed must be a non-negative integer, got None"),  # would draw from OS entropy
        (2.0, True, "seed must be a non-negative integer, got True"),
        (2.0, 1.5, "seed must be a non-negative integer, got 1.5"),
        (2.0, "3", "seed must be a non-negative integer, got '3'"),
        (2.0, -1, "seed must be a non-negative integer, got -1"),
        (2.0, np.True_, "seed must be a non-negative integer, got np.True_"),
        (2.0, np.float64(2.0), "seed must be a non-negative integer, got np.float64(2.0)"),
        (2.0, np.int64(-1), "seed must be a non-negative integer, got np.int64(-1)"),
        ("2", 0, "lam must be finite and exceed 1, got '2'"),
        (None, 0, "lam must be finite and exceed 1, got None"),
        (10**400, 0, f"lam must be finite and exceed 1, got {10**400}"),  # beyond the float range
    ],
)
def test_embedding_params_refuse_seeds_and_lams_of_the_wrong_type(lam, seed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EmbeddingParams(lam=lam, seed=seed)


def test_embedding_params_take_a_pcg64_but_not_a_generator():
    bits = np.random.PCG64(3)
    assert EmbeddingParams(lam=2.0, seed=bits).seed is bits
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got Generator\(PCG64\)"):
        EmbeddingParams(lam=2.0, seed=np.random.default_rng(3))


def test_frt_embed_draws_from_a_bit_generator_as_from_its_seed():
    counts = count_servers(euclidean_metric(np.random.default_rng(8).random((20, 2))), range(20))
    for seed in (0, 1, 2**32, 2**64 - 1):
        want = frt_embed(counts, EmbeddingParams(lam=2.0, seed=seed))
        bits = np.random.PCG64(seed)
        got = frt_embed(counts, EmbeddingParams(lam=2.0, seed=bits))
        for field in ("parent", "children", "level", "leaf_point", "point_leaf", "servers", "scale", "height"):
            assert getattr(got, field) == getattr(want, field), field
        assert bits.state != np.random.PCG64(seed).state  # the draw advanced the generator it was handed


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
    assert t.children == (range(1, 3), range(3, 5), range(5, 6), range(6, 6), range(6, 6), range(6, 6))
    assert (t.leaves, t.leaf_point, t.point_leaf) == (range(3, 6), (0, 1, 2), (3, 4, 5))
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
    assert t.children[dummy] == range(moved, moved + 1)
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
    assert t.leaf_point[t.point_leaf[0] - t.first_leaf] == 0


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
    broken = dataclasses.replace(t, level_bounds=(0, 2, 3))
    with pytest.raises(ValueError):
        validate_hst(broken)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"child_bounds": [1, 3, 3, 3]}, r"^child_bounds is a list, not a tuple$"),
        ({"child_bounds": (2, 3, 3, 3)}, r"^child_bounds runs from 2 to 3, not from 1 to 3$"),
        ({"child_bounds": (1, 3, 2, 3)}, r"^child_bounds decreases after node 1$"),
        ({"child_bounds": (1, 3, 3)}, r"^child_bounds holds 3 ids, not n_nodes \+ 1 = 4$"),
        ({"level_bounds": [0, 1, 3]}, r"^level_bounds is a list, not a tuple$"),
        ({"level_bounds": (0, 1, 2, 3)}, r"^level_bounds holds 4 ids, not height \+ 2 = 3$"),
        ({"level_bounds": (0, 2, 3)}, r"^level_bounds \(0, 2, 3\) does not start with the root's band \(0, 1\)"),
        ({"leaf_point": {1: 0, 2: 1}}, r"^leaf_point is a dict, not a tuple$"),
        ({"point_leaf": {0: 1, 1: 2}}, r"^point_leaf is a dict, not a tuple$"),
        ({"leaf_point": (0,)}, r"^the leaves are not exactly the last 1 ids$"),
        ({"point_leaf": (1, 0)}, r"^point 1 mapped to non-leaf 0$"),
        ({"point_leaf": (2, 1)}, r"^leaf 1 carries point 0, which point_leaf does not map back to it$"),
    ],
)
def test_validate_hst_catches_layout_faults(change, message):
    import dataclasses

    t = height1_tree(2)
    validate_hst(t)
    with pytest.raises(ValueError, match=message):
        validate_hst(dataclasses.replace(t, **change))


@pytest.mark.parametrize(
    "level_bounds, message",
    [
        ((0, 1, 3, 3, 8), r"^level 1 holds no node$"),
        ((0, 1, 3, 4, 8), r"^the last level band starts at 4, not at the first leaf 5$"),
        ((0, 1, 2, 5, 8), r"^level gap at edge \(0, 2\)$"),
    ],
)
def test_validate_hst_catches_level_band_faults(level_bounds, message):
    import dataclasses

    # Levels 3, 2, 1, 0 hold nodes 0, 1-2, 3-4 and the leaves 5-7.
    t = normalize_hst(RawTree([None, 0, 0, 1, 2, 3, 3, 4], [3, 2, 2, 1, 1, 0, 0, 0], {5: 0, 6: 1, 7: 2}, lam=2.0))
    assert t.level_bounds == (0, 1, 3, 5, 8) and t.child_bounds == (1, 3, 4, 5, 7, 8, 8, 8, 8)
    validate_hst(t)
    with pytest.raises(ValueError, match=message):
        validate_hst(dataclasses.replace(t, level_bounds=level_bounds))


def test_hand_built_helper_trees_fit_the_layout():
    rng = np.random.default_rng(31)
    trees = [height1_tree(n) for n in (1, 2, 5)]
    trees += [random_tree(rng, height, lam=2.5) for height in (1, 2, 3, 4) for _ in range(5)]
    trees += [with_multiplicity(t, {p: p % 3 for p in range(len(t.point_leaf))}) for t in trees[3:10]]
    trees += [random_tree_instance(rng, height, 7, lam=3.0)[0] for height in (1, 2, 3)]
    trees.append(normalize_hst(RawTree([None, 0, 0, 2, 2], [3, 2, 2, 1, 1], {1: 2, 3: 0, 4: 1}, lam=2.0)))
    for t in trees:
        validate_hst(t)


def test_normalize_refuses_leaf_points_that_are_not_the_first_integers():
    with pytest.raises(ValueError, match=r"^leaf points must be 0\.\.k-1 over k leaves, got \[0, 2\]$"):
        normalize_hst(RawTree(parent=[None, 0, 0], level=[1, 0, 0], leaf_point={1: 0, 2: 2}, lam=2.0))


def test_frt_single_point_metric():
    t = frt_embed(count_servers(FiniteMetric.from_matrix([[0.0]]), ()), EmbeddingParams(lam=2.0, seed=5))
    validate_hst(t)
    assert t.height == 1 and len(t.leaves) == 1
    assert t.point_leaf[0] in t.leaves


def test_frt_two_point_domination_all_seeds():
    m = FiniteMetric.from_matrix([[0, 5], [5, 0]])
    counts = count_servers(m, ())
    for lam in (1.5, 2.0, 7.3):
        for seed in range(25):
            t = frt_embed(counts, EmbeddingParams(lam=lam, seed=seed))
            validate_hst(t)
            assert tree_distance(t, t.point_leaf[0], t.point_leaf[1]) >= 5.0


def test_frt_uniform_eight_points_mean_stretch():
    # All distances one; the embedded tree pays 2 * lam deterministically,
    # far inside the Monte Carlo envelope.
    counts = count_servers(uniform_metric(8), ())
    total = 0.0
    trials = 10_000
    for seed in range(trials):
        t = frt_embed(counts, EmbeddingParams(lam=2.0, seed=seed))
        total += tree_distance(t, t.point_leaf[0], t.point_leaf[1])
    envelope = 16 * 2.0 * math.log(8) / math.log(2.0)
    assert total / trials <= envelope


def test_frt_domination_on_random_metrics():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = euclidean_metric(rng.random((12, 2)))
        t = frt_embed(count_servers(m, ()), EmbeddingParams(lam=2.0, seed=seed + 1000))
        validate_hst(t)
        for i in range(12):
            for j in range(i + 1, 12):
                dt = tree_distance(t, t.point_leaf[i], t.point_leaf[j])
                assert dt >= m.dist[i, j] * (1 - 1e-12)


def test_frt_reproducible_and_seed_sensitive():
    rng = np.random.default_rng(123)
    m = euclidean_metric(rng.random((10, 2)))
    p = EmbeddingParams(lam=2.0, seed=77)
    a = frt_embed(count_servers(m, ()), p)
    b = frt_embed(count_servers(m, ()), p)
    assert (a.parent, a.level, a.leaf_point, a.scale) == (b.parent, b.level, b.leaf_point, b.scale)
    counts = count_servers(m, ())
    structures = {frt_embed(counts, EmbeddingParams(lam=2.0, seed=s)).parent for s in range(10)}
    assert len(structures) > 1


def test_frt_coincident_points_share_a_leaf():
    d = [[0, 0, 3], [0, 0, 3], [3, 3, 0]]
    t = frt_embed(count_servers(FiniteMetric.from_matrix(d), ()), EmbeddingParams(lam=2.0, seed=0))
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


def slack_metrics():
    """Loaded metrics whose zero distances need not be transitive (see slack_dist)."""
    return st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), min_size=1, max_size=12).map(
        lambda points: FiniteMetric.from_matrix(slack_dist(points))
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    metric=st.one_of(euclidean_metrics(), line_metrics(), slack_metrics()),
    lam=st.sampled_from([1.05, 1.3, 2.0, 2.5, 4.2, 11.2]),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 2**16), max_size=30),
)
@example(metric=line_metric([7.0]), lam=2.0, seed=0, picks=[])  # k = 1
@example(metric=line_metric([7.0, 7.0]), lam=2.0, seed=0, picks=[0, 1, 1])  # k = 1 from two points
@example(metric=line_metric([0.0, 3.0]), lam=2.0, seed=1, picks=[1])  # k = 2
@example(metric=line_metric([0.0, 0.0, 3.0, 3.0, 24.0]), lam=2.0, seed=2, picks=[0, 1, 4, 4])  # diameter a power of lam
def test_frt_embed_matches_cluster_by_cluster_reference(metric, lam, seed, picks):
    params = EmbeddingParams(lam=lam, seed=seed)
    servers = [p % len(metric) for p in picks]
    got = frt_embed(count_servers(metric, servers), params)
    want = reference_frt_embed(metric, params, servers)
    for field in ("parent", "children", "level", "leaf_point", "point_leaf", "servers", "scale", "height"):
        assert getattr(got, field) == getattr(want, field), field
    validate_hst(got)
    validate_hst(want)
    # Parents never decrease along the ids, so every node's children are one id range.
    assert all(a <= b for a, b in zip(got.parent[1:], got.parent[2:]))
    first = 1
    for kids in got.children:
        assert type(kids) is range and kids == range(first, first + len(kids))
        first += len(kids)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    coords=st.lists(st.integers(0, 12), min_size=1, max_size=16),
    lam=st.sampled_from([1.3, 2.0, 4.2]),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 2**16), max_size=40),
)
@example(coords=[3, 3, 3], lam=2.0, seed=0, picks=[])  # no servers on a one-class metric
@example(coords=[0, 5, 0, 5, 9], lam=2.0, seed=4, picks=[0, 2, 2, 1, 3, 3, 4])  # coincident points pool
def test_frt_server_counts_add_up_every_leaf_below_each_node(coords, lam, seed, picks):
    # Small integer coordinates repeat, so coincident points pool their servers on one leaf.
    metric = line_metric(coords)
    servers = tuple(p % len(coords) for p in picks)
    t = frt_embed(count_servers(metric, servers), EmbeddingParams(lam=lam, seed=seed))
    assert t.servers == subtree_server_counts(t, Counter(servers))
    assert all(type(x) is int for x in t.servers)
    assert t.servers[t.root] == len(servers)
    validate_hst(t)


@pytest.mark.parametrize(
    "servers, message",
    [
        ((0, 3), r"^servers\[1\] = 3 outside 0\.\.2$"),
        ((1, -1, 0), r"^servers\[1\] = -1 outside 0\.\.2$"),
        ((0, 1.5), r"^servers\[1\] = 1\.5 is not an integer point index$"),
        # Beyond a C long: an entry is refused by range, never by a numpy conversion that overflows.
        ((2**70,), r"^servers\[0\] = 1180591620717411303424 outside 0\.\.2$"),
        ((-(2**70),), r"^servers\[0\] = -1180591620717411303424 outside 0\.\.2$"),
        ((0, 2**64), r"^servers\[1\] = 18446744073709551616 outside 0\.\.2$"),
    ],
)
def test_frt_refuses_server_entries_that_are_not_point_indices(servers, message):
    with pytest.raises(ValueError, match=message):
        count_servers(uniform_metric(3), servers)


def test_frt_reads_counted_servers_of_its_own_metric_only():
    m = line_metric([0.0, 1.0, 1.0, 4.0])
    servers = (3, 1, 2, 2, 0)
    counted = count_servers(m, servers)
    assert counted.per_class.tolist() == [1, 3, 1]  # points 1 and 2 share a class
    for seed in range(5):
        p = EmbeddingParams(lam=2.0, seed=seed)
        assert frt_embed(counted, p).servers == reference_frt_embed(m, p, servers).servers
    with pytest.raises(ValueError, match=r"^servers\[0\] = 4 outside 0\.\.3$"):
        count_servers(m, (4,))


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
    reps, rep_of = hst._zero_distance_classes(d)
    assert (reps, rep_of.tolist()) == reference_zero_distance_classes(d)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    metric=st.one_of(euclidean_metrics(), line_metrics(), slack_metrics()),
    lam=st.sampled_from([1.05, 1.3, 2.0, 2.5, 4.2, 11.2]),
    seed=st.integers(0, 2**64 - 1),
    picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=30),
    rest=st.booleans(),
)
@example(metric=line_metric([7.0]), lam=2.0, seed=0, picks=[0], rest=False)  # k = 1
@example(metric=line_metric([7.0, 7.0, 7.0]), lam=2.0, seed=0, picks=[0, 1, 1, 2], rest=True)  # k = 1, one leaf
@example(metric=FiniteMetric.from_matrix(slack_dist([(0, 0), (0, 1), (0, 2), (1, 0)])), lam=2.0, seed=5,
         picks=[0, 1, 2, 2, 3], rest=False)  # zeros that are not transitive
@example(metric=line_metric([0.0, 0.0, 3.0, 3.0, 24.0]), lam=2.0, seed=2, picks=[0, 1, 4, 4, 2], rest=True)
# Edge shapes of the offsets read off the node ids: two classes and a six-leaf star make one row of ids
# (height 1), and 24 line points at lam 1.05 make 98 rows (64 over the rest's five classes), nearly all
# nodes with one child; every rest count here leaves a class that holds no server.
@example(metric=line_metric([0.0, 5.0]), lam=2.0, seed=1, picks=[1, 0, 1], rest=False)
@example(metric=line_metric([0.0, 5.0]), lam=2.0, seed=1, picks=[1, 0, 1], rest=True)
@example(metric=uniform_metric(6), lam=2.0, seed=3, picks=[0, 1, 1, 5], rest=False)
@example(metric=uniform_metric(6), lam=2.0, seed=3, picks=[0, 1, 1, 5, 2, 4], rest=True)
@example(metric=line_metric(np.arange(24.0) ** 1.5), lam=1.05, seed=4, picks=[0, 3, 3, 9, 17, 23, 23], rest=False)
@example(metric=line_metric(np.arange(24.0) ** 1.5), lam=1.05, seed=4, picks=[0, 3, 3, 9, 17, 23, 23], rest=True)
def test_frt_embed_matches_the_level_pass_oracle(metric, lam, seed, picks, rest):
    # The one sort per tree against one np.unique per level, over multiset servers and, with ``rest``, the
    # per-class counts an episode draws over: the server submetric less the run's self-serving opening.
    servers = [p % len(metric) for p in picks]
    counts = count_servers(metric, servers)
    if rest:
        requests = [(p * 7 + 3) % len(metric) for p in picks]
        try:
            counts = pipeline_setup(Instance(metric=metric, servers=servers, requests=requests)).rest
        except ValueError:  # a request triangle that the slack lets through the load but not the run
            assume(False)
    params = EmbeddingParams(lam=lam, seed=seed)
    got, want = frt_embed(counts, params), level_pass_frt_embed(counts, params)
    for field in [f.name for f in dataclasses.fields(HstTree)] + ["children", "level"]:
        assert getattr(got, field) == getattr(want, field), field
    assert all(
        type(x) is int
        for x in got.servers + got.parent[1:] + got.child_bounds + got.level_bounds + got.leaf_point + got.point_leaf
    )
    validate_hst(got)
    validate_hst(want)


def test_frt_refuses_trees_beyond_the_node_budget():
    m = line_metric(np.arange(8.0))
    # lam barely above 1 asks for about ln(7) / 1e-7 levels.
    with pytest.raises(ValueError, match="MAX_TREE_NODES"):
        frt_embed(count_servers(m, ()), EmbeddingParams(lam=1.0000001, seed=0))


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
        frt_embed(count_servers(line_metric(coords), ()), EmbeddingParams(lam=2.0, seed=0))


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
    setup = pipeline_setup(Instance(metric=m, servers=(0, 0, 1), requests=(2, 0, 1)))
    t = frt_embed(setup.servers, EmbeddingParams(lam=2.0, seed=1))
    at_leaf = attach_servers(t, setup.stock)
    assert len(t.point_leaf) == 2  # the tree spans the server points only
    assert t.servers[t.point_leaf[0]] == 2
    assert t.servers[t.point_leaf[1]] == 1
    assert sum(t.servers[leaf] for leaf in t.leaves) == 3
    assert type(at_leaf) is list and len(at_leaf) == len(t.leaves)
    assert at_leaf[t.point_leaf[0] - t.first_leaf] == (0, 0)
    assert at_leaf[t.point_leaf[1] - t.first_leaf] == (1,)


def test_attach_servers_all_on_one_leaf():
    m = uniform_metric(2)
    setup = pipeline_setup(Instance(metric=m, servers=(1, 1, 1, 1), requests=(0, 0, 0, 0)))
    t = frt_embed(setup.servers, EmbeddingParams(lam=2.0, seed=1))
    at_leaf = attach_servers(t, setup.stock)
    assert t.servers[t.point_leaf[0]] == 4  # instance point 1 is submetric point 0
    assert t.leaves == range(1, 2) and at_leaf == [(1, 1, 1, 1)]


def test_attach_servers_missing_point_errors():
    t = frt_embed(count_servers(uniform_metric(3), ()), EmbeddingParams(lam=2.0, seed=0))
    stock = pipeline_setup(Instance(metric=uniform_metric(3), servers=(0, 2), requests=(1, 1))).stock
    with pytest.raises(ValueError, match="^point 2 has no entry in the server stock$"):
        attach_servers(t, stock)  # keyed by submetric points 0 and 1 only


def test_attach_servers_hands_out_a_shared_leafs_stock_highest_first_uncopied():
    # Points 1 and 2 sit at distance zero, so they share a leaf; point 3 holds no server.
    m = line_metric([0.0, 5.0, 5.0, 9.0])
    servers = (2, 1, 1, 0)
    t = frt_embed(count_servers(m, servers), EmbeddingParams(lam=2.0, seed=3))
    stock = {0: (0,), 1: (2, 1, 1), 3: ()}
    at_leaf = attach_servers(t, stock)
    shared = t.point_leaf[1]
    assert t.point_leaf[2] == shared
    by_leaf = dict(zip(t.leaves, at_leaf))
    assert by_leaf == {shared: (2, 1, 1), t.point_leaf[0]: (0,), t.point_leaf[3]: ()}
    assert {leaf: t.servers[leaf] for leaf in t.leaves} == {shared: 3, t.point_leaf[0]: 1, t.point_leaf[3]: 0}
    # Every episode reads the stock's own immutable tuples; a leaf's count says how many are left.
    assert all(at_leaf[t.point_leaf[q] - t.first_leaf] is stock[q] for q in stock)
    assert attach_servers(t, stock)[shared - t.first_leaf] is stock[1] == (2, 1, 1)


def test_pipeline_setup_stocks_each_class_highest_first():
    # Points 1 and 3 sit at distance zero; point 2 holds no server.
    m = line_metric([0.0, 5.0, 7.0, 5.0])
    setup = pipeline_setup(Instance(metric=m, servers=(1, 3, 0, 3), requests=(2, 2, 2, 2)))
    assert setup.stock == {0: (0,), 1: (3, 3, 1)}  # submetric points 0, 1, 2 are instance points 0, 1, 3


def test_tree_dump_schema():
    m = uniform_metric(3)
    t = frt_embed(count_servers(m, (0, 1, 2)), EmbeddingParams(lam=2.0, seed=2))
    dump = tree_to_dict(t)
    assert set(dump) == {"lambda", "scale", "height", "nodes"}
    assert dump["nodes"][0]["parent"] is None
    for node in dump["nodes"]:
        assert set(node) == {"id", "parent", "level", "leaf_point", "multiplicity"}
    mults = [n["multiplicity"] for n in dump["nodes"] if n["multiplicity"] is not None]
    assert sum(mults) == 3
