import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strat

from helpers import (
    RawTree,
    greedy_serve,
    height1_tree,
    left_to_right_total,
    normalize_hst,
    play_on_tree,
    random_tree,
    random_tree_instance,
    recompute_green,
    reference_greedy,
    reference_rwgm_init,
    reference_rwgm_serve,
    tree_distance,
    with_multiplicity,
)
from hstmatch.generators import line_metric, star_metric, uniform_metric
from hstmatch.harness import ALGORITHMS, derive_seed, episode_totals, pipeline_setup, run_algorithm, run_episode
from hstmatch.hst import EmbeddingParams, count_servers, frt_embed
from hstmatch.metric import FiniteMetric, Instance
from hstmatch.online import (
    POLICIES,
    _below,
    discretize_all,
    pick_a_leaf,
    run_greedy,
    rwgm_init,
    rwgm_serve,
)


def green(state) -> list:
    """A node is green exactly when its subtree still holds an unassigned server."""
    return [c > 0 for c in state.subtree_remaining]


def test_init_green_sets():
    t = with_multiplicity(height1_tree(1), {0: 3})
    st = rwgm_init(t, 0)
    assert green(st)[t.point_leaf[0]] and green(st)[t.root]
    assert st.subtree_remaining[t.point_leaf[0]] == st.subtree_remaining[t.root] == 3

    t = with_multiplicity(height1_tree(2), {0: 1, 1: 0})
    st = rwgm_init(t, 0)
    assert green(st)[t.point_leaf[0]] and not green(st)[t.point_leaf[1]] and green(st)[t.root]

    t = with_multiplicity(height1_tree(3), {0: 1, 1: 2, 2: 1})
    st = rwgm_init(t, 0)
    assert all(green(st))


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


@pytest.mark.parametrize("kind", [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64, np.random.MT19937])
@pytest.mark.parametrize("wrap", [np.random.Generator, lambda bits: bits], ids=["generator", "bit-generator"])
def test_init_from_each_bit_generator_kind_draws_uniformly(kind, wrap):
    # Four leaves of two servers each and a serverless leaf under one root:
    # each request at the empty leaf climbs to the root and takes one uniform
    # draw among four, and two requests per episode read two 32-bit words.
    t = with_multiplicity(height1_tree(5), {0: 2, 1: 2, 2: 2, 3: 2, 4: 0})
    point_of = {leaf: p for p, leaf in t.point_leaf.items()}
    bits = kind(derive_seed(2024, 12))
    seed = wrap(bits)
    episodes = 3000
    counts = [[0] * 4, [0] * 4]
    for _ in range(episodes):
        st = rwgm_init(t, seed)
        for draw in counts:
            draw[point_of[rwgm_serve(st, t.point_leaf[4])[0]]] += 1
    # 64-bit streams are read in place; MT19937's 32-bit outputs seed a fresh PCG64.
    assert (st.bits is bits) == (kind is not np.random.MT19937)
    for draw in counts:
        chi2 = sum((c - episodes / 4) ** 2 / (episodes / 4) for c in draw)
        assert chi2 < 16.27  # chi-square, 3 degrees of freedom, p = 0.001


def test_int_seeded_draws_do_not_touch_a_generator():
    st = rwgm_init(with_multiplicity(height1_tree(2), {0: 1, 1: 1}), 5)
    assert type(st.bits) is np.random.PCG64 and st.bits.state == np.random.PCG64(5).state


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
        assert green(got) == want.green
        leaf_counts = [got.subtree_remaining[v] if tree.is_leaf(v) else 0 for v in range(tree.n_nodes)]
        assert leaf_counts == want.remaining
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
            assert green(st) == recompute_green(st)
        assert st.subtree_remaining[tree.root] == 0


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    coords=strat.lists(strat.integers(0, 40), min_size=1, max_size=10),
    picks=strat.lists(strat.integers(0, 2**16), min_size=2, max_size=30),
    play_seed=strat.integers(0, 2**64 - 1),
    embed_seed=strat.integers(0, 2**32 - 1),
    policy=strat.sampled_from(POLICIES),
)
def test_built_green_lists_hold_the_green_children_after_every_serve(coords, picks, play_seed, embed_seed, policy):
    # Servers pile up on few points (and on repeated coordinates, which share a
    # leaf), so leaves hold several servers and empty only after several serves.
    metric = line_metric(coords)
    n = len(picks) // 2
    servers = tuple(picks[i] % len(coords) % 3 for i in range(n))
    requests = tuple(picks[i] % len(coords) for i in range(n, 2 * n))
    tree = frt_embed(count_servers(metric, servers), EmbeddingParams(lam=2.0, seed=embed_seed))
    got = rwgm_init(tree, play_seed, policy=policy)
    want = reference_rwgm_init(tree, play_seed, policy=policy)
    counts = got.subtree_remaining
    for r in requests:
        assert rwgm_serve(got, tree.point_leaf[r]) == reference_rwgm_serve(want, tree.point_leaf[r])
        for u, kids in enumerate(got.green):
            if kids is not None:
                assert kids == [c for c in tree.children[u] if counts[c]], u
    if policy == "proportional":
        assert got.green == [None] * tree.n_nodes


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
                    if st.subtree_remaining[leaf] > 0
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
    assert used == {leaf: tree.servers[leaf] for leaf in tree.leaves}
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
    # tree matcher serves that image, and the record holds the original-metric
    # distance d(r, s).
    m = line_metric([0.0, 4.0, 9.0, 10.0])
    for requests, images, costs in (
        ((1, 2), (0, 3), [4.0, 1.0]),
        ((3, 0), (3, 0), [0.0, 0.0]),  # requests already at server points
    ):
        inst = Instance(metric=m, servers=(0, 3), requests=requests)
        setup = pipeline_setup(inst)
        assert setup.g == images
        served = run_episode(setup, 1, 2, check=True)
        assert served == list(images)  # no moves: each image's server serves it
        record = run_algorithm(inst, "rwgm", master_seed=0, episodes=1)
        assert record.costs.tolist() == [costs]


def test_mai_per_request_inequality():
    # d(r, s) <= d(g, s) + d(g, r) for every request r, its image g and its
    # server s; run_episode(check=True) asserts it too.
    rng = np.random.default_rng(50)
    m = line_metric(rng.uniform(0, 10, 8))
    setup = pipeline_setup(Instance(metric=m, servers=(0, 1, 2, 3), requests=(4, 5, 6, 7)))
    for algorithm in ("rwgm", "rwgm-proportional"):
        for e in range(20):
            served = run_episode(
                setup, derive_seed(50, e, 0), derive_seed(50, e, 1), algorithm=algorithm, check=True
            )
            for r, s, g in zip(setup.inst.requests, served, setup.g):
                assert m.dist[r, s] <= m.dist[g, s] + m.dist[g, r] + 1e-12


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
    assert run_greedy(inst)[0] == 2
    record = run_algorithm(inst, "greedy", master_seed=0, episodes=1)
    assert record.costs[0, 0] == 0.0


def test_total_cost_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so the plain float sum loses the 1.0
    # that math.fsum (and sum() from Python 3.12) keeps; reports use the plain sum.
    for costs, total in (([1e16, 1.0, -1e16], 0.0), ([1e16, 1.0, -1e16, 0.5], 0.5)):
        assert episode_totals(np.array([costs])).tolist() == [total]
        assert left_to_right_total(costs) == total
        assert math.fsum(costs) == total + 1.0


_COSTS = strat.one_of(
    strat.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1]),
    strat.floats(allow_nan=False, allow_infinity=False, width=64),
    strat.floats(-1e-300, 1e-300, allow_nan=False),  # down to the subnormals
    strat.floats(-1e17, 1e17, allow_nan=False),  # rounding and cancellation at the 1e16 scale
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=strat.integers(1, 6).flatmap(
        lambda n: strat.lists(strat.lists(_COSTS, min_size=n, max_size=n), min_size=1, max_size=5)
    ),
)
@example(rows=[[-0.0]])
@example(rows=[[-0.0, -0.0, -0.0], [0.0, -0.0, -0.0], [-0.0, 0.0, -0.0]])
@example(rows=[[1e16, 1.0, -1e16], [1e16, 1.0, -1e16, 0.5][1:]])
@example(rows=[[5e-324, -5e-324], [5e-324, 5e-324], [2.2250738585072014e-308, -5e-324]])
@example(rows=[[1.7976931348623157e308, 1.7976931348623157e308, -1.7976931348623157e308]])
def test_episode_totals_equal_the_left_to_right_loop_bit_for_bit(rows):
    with np.errstate(over="ignore"):  # sums past the float maximum are inf in both
        totals = episode_totals(np.array(rows, dtype=float)).tolist()
    assert [t.hex() for t in totals] == [left_to_right_total(row).hex() for row in rows]


@pytest.mark.parametrize("tag", ALGORITHMS)
def test_record_totals_equal_the_left_to_right_loop(tag):
    # Signed zeros and subnormals in the metric reach the costs: a row of -0.0 totals 0.0,
    # as the loop does, and a one-request instance has rows of length 1.
    a, b = 1e-320, 2e-320
    dist = [[0.0, -0.0, a, b], [-0.0, 0.0, a, b], [a, a, 0.0, a], [b, b, a, 0.0]]
    for dist, servers, requests in (
        ([[0.0, -0.0], [-0.0, 0.0]], (0,), (1,)),
        (dist, (0, 1, 1, 3, 2), (1, 0, 2, 0, 3)),
    ):
        inst = Instance(metric=FiniteMetric.from_matrix(dist), servers=servers, requests=requests)
        record = run_algorithm(inst, tag, master_seed=3, episodes=30)
        want = [left_to_right_total(row).hex() for row in record.costs.tolist()]
        assert [t.hex() for t in record.totals.tolist()] == want
        if len(servers) == 1:
            assert record.costs.ravel().tolist()[0].hex() == "-0x0.0p+0" and set(want) == {"0x0.0p+0"}


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_greedy_star_cascade(k):
    metric = star_metric(k)
    inst = Instance(metric=metric, servers=tuple(range(1, k + 1)), requests=(0,) + tuple(range(1, k)))
    record = run_algorithm(inst, "greedy", master_seed=0, episodes=1)
    assert record.served.tolist() == [run_greedy(inst)]
    assert record.totals.tolist() == [pytest.approx(2 * k - 1)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    coords=strat.lists(strat.integers(0, 6), min_size=1, max_size=10),  # repeats and equal gaps: ties
    pairs=strat.lists(strat.tuples(strat.integers(0, 9), strat.integers(0, 9)), min_size=1, max_size=14),
)
def test_run_greedy_matches_the_dict_scan(coords, pairs):
    metric = line_metric(coords)
    servers = tuple(a % len(coords) for a, _ in pairs)
    requests = tuple(b % len(coords) for _, b in pairs)
    inst = Instance(metric, servers, requests)
    served = run_greedy(inst)
    assert [(r, s, float(metric.dist[r, s])) for r, s in zip(requests, served)] == reference_greedy(inst)
    assert all(type(s) is int for s in served)


def test_run_greedy_breaks_ties_toward_the_lowest_point():
    inst = Instance(uniform_metric(4), servers=(3, 1, 2, 1), requests=(0, 0, 0, 0))
    assert run_greedy(inst) == [1, 1, 2, 3]
