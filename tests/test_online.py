import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from helpers import (
    height1_tree,
    play_on_tree,
    random_tree,
    random_tree_instance,
    recompute_green,
    reference_rwgm_init,
    reference_rwgm_serve,
    with_multiplicity,
)
from hstmatch.generators import line_metric, star_metric, uniform_metric
from hstmatch.harness import derive_seed, pipeline_setup, run_episode
from hstmatch.hst import RawTree, normalize_hst, tree_distance
from hstmatch.metric import Instance
from hstmatch.online import (
    POLICIES,
    _below,
    discretize_all,
    greedy_serve,
    pick_a_leaf,
    run_greedy,
    rwgm_init,
    rwgm_serve,
)


def test_init_green_sets():
    t = with_multiplicity(height1_tree(1), {0: 3})
    st = rwgm_init(t, 0)
    assert st.green[t.point_leaf[0]] and st.green[t.root]

    t = with_multiplicity(height1_tree(2), {0: 1, 1: 0})
    st = rwgm_init(t, 0)
    assert st.green[t.point_leaf[0]] and not st.green[t.point_leaf[1]] and st.green[t.root]

    t = with_multiplicity(height1_tree(3), {0: 1, 1: 2, 2: 1})
    st = rwgm_init(t, 0)
    assert all(st.green)


def test_init_rejects_empty_tree_and_bad_policy():
    t = with_multiplicity(height1_tree(2), {0: 0, 1: 0})
    with pytest.raises(ValueError):
        rwgm_init(t, 0)
    with pytest.raises(ValueError):
        rwgm_init(with_multiplicity(height1_tree(2), {0: 1}), 0, policy="bogus")


BOUNDS = [1, 2, 3, 7, 2**31 + 1, 2**32 - 1]  # 2**31 + 1 rejects about half of its draws


@pytest.mark.parametrize("n", BOUNDS)
def test_below_replays_generator_integers(n):
    st = rwgm_init(with_multiplicity(height1_tree(1), {0: 1}), 11)
    rng = np.random.default_rng(11)
    assert [_below(st, n) for _ in range(10_000)] == [int(rng.integers(n)) for _ in range(10_000)]


def test_below_rejects_exactly_the_biased_low_words():
    # For n = 3, (2**32 - 3) % 3 == 1: a low word of 0 is redrawn, a low word of 1 is kept.
    st = rwgm_init(with_multiplicity(height1_tree(1), {0: 1}), 0)
    st.u32 = iter([0, 2**31, 2863311531, 7])
    assert _below(st, 3) == 1  # 0 is rejected; 2**31 * 3 >> 32 == 1
    assert _below(st, 3) == 2  # 2863311531 * 3 == 2 * 2**32 + 1
    assert list(st.u32) == [7]


def test_init_takes_any_generator_or_bit_generator():
    t = with_multiplicity(height1_tree(2), {0: 1, 1: 1})
    for seed in (np.random.Generator(np.random.MT19937(0)), np.random.default_rng(0), np.random.Philox(0)):
        st = rwgm_init(t, seed)
        assert sorted(rwgm_serve(st, 1)[0] for _ in range(2)) == [1, 2]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    tree_seed=strat.integers(0, 2**32 - 1),
    play_seed=strat.integers(0, 2**64 - 1),
    height=strat.integers(1, 4),
    n=strat.integers(1, 30),
    policy=strat.sampled_from(POLICIES),
)
def test_serve_matches_the_generator_reference(tree_seed, play_seed, height, n, policy):
    tree, inst = random_tree_instance(np.random.default_rng(tree_seed), height, n, lam=2.5)
    got = rwgm_init(tree, play_seed, policy=policy)
    want = reference_rwgm_init(tree, play_seed, policy=policy)
    for r in inst.requests:
        leaf = tree.point_leaf[r]
        assert rwgm_serve(got, leaf) == reference_rwgm_serve(want, leaf)
        assert got.green == want.green
        assert got.remaining == want.remaining
        assert got.subtree_remaining == want.subtree_remaining


def test_serve_self_match_costs_zero():
    t = with_multiplicity(height1_tree(2), {0: 1, 1: 1})
    st = rwgm_init(t, 0)
    leaf, cost = rwgm_serve(st, t.point_leaf[0])
    assert leaf == t.point_leaf[0] and cost == 0.0


def test_serve_forced_choice_and_exhaustion():
    t = with_multiplicity(height1_tree(2, scale=2.5), {0: 0, 1: 1})
    st = rwgm_init(t, 0)
    leaf, cost = rwgm_serve(st, t.point_leaf[0])
    assert leaf == t.point_leaf[1]
    assert cost == pytest.approx(2 * 2.5)
    with pytest.raises(RuntimeError):
        rwgm_serve(st, t.point_leaf[0])


def test_serve_rejects_non_leaf_requests():
    t = with_multiplicity(height1_tree(2), {0: 1, 1: 1})
    st = rwgm_init(t, 0)
    with pytest.raises(ValueError):
        rwgm_serve(st, t.root)


def test_first_move_uniform_between_two_servers():
    # Servers at a and b, request at empty c: each serves with chance 1/2.
    t = with_multiplicity(height1_tree(3), {0: 1, 1: 1, 2: 0})
    rng = np.random.default_rng(42)
    trials = 4000
    hits = 0
    for _ in range(trials):
        st = rwgm_init(t, rng)
        leaf, _ = rwgm_serve(st, t.point_leaf[2])
        hits += leaf == t.point_leaf[0]
    p = hits / trials
    assert abs(p - 0.5) <= 3 * math.sqrt(0.25 / trials)


def test_exact_expected_moves_three_point_case():
    # S = {a, b}, R = (c, a): branch enumeration gives cost 1 or 2, each 1/2.
    t = with_multiplicity(height1_tree(3), {0: 1, 1: 1, 2: 0})
    rng = np.random.default_rng(7)
    trials = 20_000
    total = 0
    for _ in range(trials):
        _, moves = play_on_tree(t, (2, 0), rng)
        total += moves
    mean = total / trials
    se = 0.5 / math.sqrt(trials)  # the move count is 1 or 2 with equal chance
    assert abs(mean - 1.5) <= 3 * se


def test_pick_a_leaf_single_green_child_is_forced():
    t = with_multiplicity(height1_tree(3), {0: 0, 1: 2, 2: 0})
    st = rwgm_init(t, 0)
    for _ in range(5):
        assert pick_a_leaf(st, t.root) == t.point_leaf[1]


def test_pick_a_leaf_uniform_ignores_multiplicity():
    t = with_multiplicity(height1_tree(3), {0: 5, 1: 1, 2: 2})
    rng = np.random.default_rng(0)
    st = rwgm_init(t, rng)
    trials = 6000
    counts = {0: 0, 1: 0, 2: 0}
    for _ in range(trials):
        counts[t.leaf_point[pick_a_leaf(st, t.root)]] += 1
    for p in counts:
        assert abs(counts[p] / trials - 1 / 3) <= 3 * math.sqrt((1 / 3) * (2 / 3) / trials)


def two_level_tree():
    # Root with children L (one leaf) and R (three leaves).
    raw = RawTree(
        parent=[None, 0, 0, 1, 2, 2, 2],
        level=[2, 1, 1, 0, 0, 0, 0],
        leaf_point={3: 0, 4: 1, 5: 2, 6: 3},
        lam=2.0,
    )
    return normalize_hst(raw)


def test_pick_a_leaf_level_probabilities():
    t = with_multiplicity(two_level_tree(), {0: 1, 1: 1, 2: 1, 3: 1})
    rng = np.random.default_rng(1)
    st = rwgm_init(t, rng)
    trials = 9000
    counts = {p: 0 for p in range(4)}
    for _ in range(trials):
        counts[t.leaf_point[pick_a_leaf(st, t.root)]] += 1
    # Uniform by levels: the lone left leaf gets 1/2, each right leaf 1/6.
    assert abs(counts[0] / trials - 0.5) <= 3 * math.sqrt(0.25 / trials)
    for p in (1, 2, 3):
        assert abs(counts[p] / trials - 1 / 6) <= 3 * math.sqrt((1 / 6) * (5 / 6) / trials)


def test_pick_a_leaf_proportional_policy():
    t = with_multiplicity(two_level_tree(), {0: 1, 1: 1, 2: 1, 3: 1})
    rng = np.random.default_rng(2)
    st = rwgm_init(t, rng, policy="proportional")
    trials = 9000
    left = 0
    for _ in range(trials):
        left += pick_a_leaf(st, t.root) == t.point_leaf[0]
    # Weighted by unassigned servers: the left subtree holds 1 of 4.
    assert abs(left / trials - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / trials)


def test_pick_a_leaf_requires_green():
    t = with_multiplicity(height1_tree(2), {0: 1, 1: 0})
    st = rwgm_init(t, 0)
    with pytest.raises(ValueError):
        pick_a_leaf(st, t.point_leaf[1])


def test_green_invariant_after_every_serve():
    rng = np.random.default_rng(10)
    for trial in range(20):
        height = int(rng.integers(1, 4))
        n = int(rng.integers(1, 13))
        tree, inst = random_tree_instance(rng, height, n, lam=2.0)
        st = rwgm_init(tree, rng)
        for r in inst.requests:
            rwgm_serve(st, tree.point_leaf[r])
            assert st.green == recompute_green(st)
        assert sum(st.remaining) == 0


def test_each_serve_is_tree_greedy():
    for policy in POLICIES:
        rng = np.random.default_rng(20)
        for trial in range(10):
            tree, inst = random_tree_instance(rng, int(rng.integers(1, 4)), 10, lam=2.0)
            st = rwgm_init(tree, rng, policy=policy)
            for r in inst.requests:
                req_leaf = tree.point_leaf[r]
                best = min(
                    tree_distance(tree, req_leaf, leaf)
                    for leaf in tree.leaves
                    if st.remaining[leaf] > 0
                )
                chosen, cost = rwgm_serve(st, req_leaf)
                assert cost == pytest.approx(best, rel=1e-12, abs=1e-12)
                # The cost read at the climb's stopping level is the leaf distance, bit for bit.
                assert cost == tree_distance(tree, req_leaf, chosen)


def test_conservation_every_server_used_once():
    rng = np.random.default_rng(30)
    tree, inst = random_tree_instance(rng, 2, 9, lam=2.0)
    st = rwgm_init(tree, 99)
    used = {leaf: 0 for leaf in tree.leaves}
    for r in inst.requests:
        leaf, _ = rwgm_serve(st, tree.point_leaf[r])
        used[leaf] += 1
    assert used == dict(tree.leaf_multiplicity)
    with pytest.raises(RuntimeError):
        rwgm_serve(st, tree.point_leaf[inst.requests[0]])


def test_identical_seeds_replay_identical_episodes():
    rng = np.random.default_rng(40)
    tree, inst = random_tree_instance(rng, 3, 12, lam=2.0)
    runs = []
    for _ in range(2):
        st = rwgm_init(tree, 4242)
        runs.append([rwgm_serve(st, tree.point_leaf[r]) for r in inst.requests])
    assert runs[0] == runs[1]


def test_discretize_request():
    m = line_metric([0.0, 4.0, 5.0, 10.0])
    # A server point maps to itself, 4 is nearer to 0, and 5 ties: the lowest index wins.
    inst = Instance(metric=m, servers=(0, 3, 3), requests=(0, 1, 2))
    assert discretize_all(inst) == (0, 0, 0)
    m = line_metric([0.0, 4.0, 9.0, 10.0])
    inst = Instance(metric=m, servers=(0, 3, 3), requests=(1, 2, 3))
    images = discretize_all(inst)
    assert images == (0, 3, 3)
    assert all(type(g) is int for g in images)

    # Against a first-minimum scan over the sorted distinct server points.
    rng = np.random.default_rng(60)
    for trial in range(30):
        m = line_metric(rng.integers(0, 6, 9).astype(float))  # many exact ties
        servers = tuple(int(p) for p in rng.integers(0, 9, 4))
        requests = tuple(int(p) for p in rng.integers(0, 9, 4))
        inst = Instance(metric=m, servers=servers, requests=requests)
        pts = sorted(set(servers))
        assert discretize_all(inst) == tuple(min(pts, key=lambda s: m.dist[r, s]) for r in requests)


def test_mai_serve_wrapper():
    # Each request is replaced by its nearest server point (its image), the
    # tree matcher serves that image, and the trace records the original-metric
    # distance d(r, s).
    m = line_metric([0.0, 4.0, 9.0, 10.0])
    for requests, images, decisions in (
        ((1, 2), (0, 3), [(1, 0, 4.0), (2, 3, 1.0)]),
        ((3, 0), (3, 0), [(3, 3, 0.0), (0, 0, 0.0)]),  # requests already at server points
    ):
        setup = pipeline_setup(Instance(metric=m, servers=(0, 3), requests=requests))
        assert setup.g == images
        result = run_episode(setup, 1, 2, check=True)
        assert result.trace.decisions == decisions and result.moves == 0


def test_mai_per_request_inequality():
    # d(r, s) <= d(g, s) + d(g, r) for every request r, its image g and its
    # server s; run_episode(check=True) asserts it too.
    rng = np.random.default_rng(50)
    m = line_metric(rng.uniform(0, 10, 8))
    setup = pipeline_setup(Instance(metric=m, servers=(0, 1, 2, 3), requests=(4, 5, 6, 7)))
    for algorithm in ("rwgm", "rwgm-proportional"):
        for e in range(20):
            trace = run_episode(
                setup, derive_seed(50, e, 0), derive_seed(50, e, 1), algorithm=algorithm, check=True
            ).trace
            for (r, s, cost), g in zip(trace.decisions, setup.g):
                assert cost == m.dist[r, s]
                assert cost <= m.dist[g, s] + m.dist[g, r] + 1e-12


def test_greedy_serve_nearest_unused():
    m = line_metric([0.0, 2.0, 3.0])
    inst = Instance(metric=m, servers=(0, 2), requests=(1, 1))
    remaining = {0: 1, 2: 1}
    assert greedy_serve(inst, remaining, 1) == (2, 1.0)
    assert greedy_serve(inst, remaining, 1) == (0, 2.0)
    with pytest.raises(RuntimeError):
        greedy_serve(inst, remaining, 1)


def test_greedy_zero_cost_on_own_server():
    m = uniform_metric(3)
    inst = Instance(metric=m, servers=(1, 2), requests=(2, 0))
    assert run_greedy(inst).decisions[0] == (2, 2, 0.0)


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_greedy_star_cascade(k):
    metric = star_metric(k)
    inst = Instance(metric=metric, servers=tuple(range(1, k + 1)), requests=(0,) + tuple(range(1, k)))
    trace = run_greedy(inst)
    assert trace.total_cost == pytest.approx(2 * k - 1)
