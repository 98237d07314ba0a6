import math

import numpy as np
import pytest

from helpers import RawTree, brute_force_cost, height1_tree, normalize_hst, random_tree_instance, with_multiplicity
from hstmatch.generators import GeneratorSpec, generate_instance, line_metric, uniform_metric
from hstmatch.hst import leaf_counts, tree_distance
from hstmatch.metric import FiniteMetric, Instance
from hstmatch.online import discretize_all
from hstmatch.oracle import (
    BoundParams,
    bound_rwgm_hst,
    expected_moves_bound,
    harmonic,
    hst_cost_from_tau,
    optimal_matching,
    turning_point_tau,
    uniform_bound,
)


def test_harmonic_values():
    assert harmonic(1) == 1.0
    assert harmonic(3) == pytest.approx(11 / 6, abs=1e-15)
    assert harmonic(0) == 0.0
    assert harmonic(-5) == 0.0


def test_harmonic_recurrence_identity():
    hs = [harmonic(n) for n in range(0, 1001)]
    for n in range(1, 1001):
        rhs = 1.0 + math.fsum(hs[1:n]) / n
        assert abs(hs[n] - rhs) <= 1e-12


def test_uniform_bound_values():
    assert uniform_bound(3, 1) == pytest.approx(11 / 6, abs=1e-15)
    assert uniform_bound(4, 2) == pytest.approx(47 / 12, abs=1e-14)
    assert uniform_bound(9, 0) == 0.0
    with pytest.raises(ValueError):
        uniform_bound(3, 4)
    with pytest.raises(ValueError):
        uniform_bound(3, -1)


def test_uniform_bound_monotone():
    for q in range(1, 13):
        prev = 0.0
        for delta in range(0, q + 1):
            b = uniform_bound(q, delta)
            assert b >= prev
            prev = b
    for delta in range(1, 8):
        vals = [uniform_bound(q, delta) for q in range(delta, 13)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_optimal_matching_identity_multisets():
    m = uniform_metric(4)
    inst = Instance(metric=m, servers=(0, 1, 1, 3), requests=(1, 3, 0, 1))
    assert optimal_matching(inst).cost == 0.0


def test_optimal_matching_line_example():
    m = line_metric([0.0, 1.0, 9.0, 10.0])
    inst = Instance(metric=m, servers=(0, 3), requests=(1, 2))
    om = optimal_matching(inst)
    assert om.cost == pytest.approx(2.0)
    matched = {inst.requests[r]: inst.servers[s] for s, r in om.pairs}
    assert matched == {1: 0, 2: 3}


def test_optimal_matching_agrees_with_brute_force():
    rng = np.random.default_rng(77)
    for trial in range(40):
        n = int(rng.integers(1, 8))
        family = ("euclidean", "line")[trial % 2]
        inst = generate_instance(GeneratorSpec(family, n, seed=int(rng.integers(2**32))))
        om = optimal_matching(inst)
        bf = brute_force_cost(inst)
        assert om.cost == pytest.approx(bf, rel=1e-9, abs=1e-12)


def test_tau_zero_when_pairs_share_leaves():
    t = with_multiplicity(height1_tree(3), {0: 2, 1: 1, 2: 0})
    profile = turning_point_tau(t, leaf_counts(t, [0, 0, 1]))
    assert all(v == 0 for v in profile.tau.values())
    assert hst_cost_from_tau(profile, t) == 0.0


def test_tau_single_cross_pair():
    t = with_multiplicity(height1_tree(2, scale=1.0), {0: 1, 1: 0})
    profile = turning_point_tau(t, leaf_counts(t, [1]), server_count={t.point_leaf[0]: 1, t.point_leaf[1]: 0})
    assert profile.tau[t.root] == 1
    assert hst_cost_from_tau(profile, t) == pytest.approx(2.0)


def test_tau_rejects_unbalanced_totals():
    t = with_multiplicity(height1_tree(2), {0: 2, 1: 0})
    with pytest.raises(ValueError):
        turning_point_tau(t, leaf_counts(t, [1]))


def test_tau_cost_matches_oracle_on_random_trees():
    rng = np.random.default_rng(5)
    for trial in range(40):
        height = int(rng.integers(1, 4))
        n = int(rng.integers(1, 8))
        tree, inst = random_tree_instance(rng, height, n, lam=2.0 + float(rng.random()))
        req = leaf_counts(tree, inst.requests)
        profile = turning_point_tau(tree, req)
        cost = hst_cost_from_tau(profile, tree)
        assert cost == pytest.approx(optimal_matching(inst).cost, rel=1e-9, abs=1e-12)
        # Total tau counts exactly the pairs no leaf can absorb locally.
        cross = n - sum(min(req[leaf], tree.leaf_multiplicity[leaf]) for leaf in tree.leaves)
        assert sum(profile.tau.values()) == cross
        assert all(profile.tau[leaf] == 0 for leaf in tree.leaves)


def test_hst_cost_single_pair_height_two():
    raw = RawTree(
        parent=[None, 0, 0, 1, 2],
        level=[2, 1, 1, 0, 0],
        leaf_point={3: 0, 4: 1},
        lam=3.0,
    )
    t = with_multiplicity(normalize_hst(raw), {0: 1, 1: 0})
    profile = turning_point_tau(t, leaf_counts(t, [1]))
    assert hst_cost_from_tau(profile, t) == pytest.approx(8.0)
    assert hst_cost_from_tau(profile, t) == pytest.approx(
        tree_distance(t, t.point_leaf[0], t.point_leaf[1])
    )


def test_bound_params_coefficients():
    params = BoundParams.for_height(lam=4.0, n=8, height=10)
    assert params.c[0] == 0.5
    assert all(c < 1.0 for c in params.c)
    assert all(b > a for a, b in zip(params.c, params.c[1:]))
    for t, c in enumerate(params.c, start=1):
        assert c == pytest.approx(1.0 - 0.5**t, abs=1e-15)


def test_bound_rwgm_trivial_cases():
    t = with_multiplicity(height1_tree(2), {0: 1, 1: 1})
    params = BoundParams.for_height(lam=t.lam, n=2, height=t.height)
    zero = turning_point_tau(t, leaf_counts(t, [0, 1]))
    assert bound_rwgm_hst(zero, params) == 0.0
    one = turning_point_tau(t, leaf_counts(t, [0, 0]), server_count={t.point_leaf[0]: 1, t.point_leaf[1]: 1})
    assert bound_rwgm_hst(one, params) == pytest.approx(t.lam)  # 2 * c_1 * lam


def test_bound_rwgm_checks_lam():
    t = with_multiplicity(height1_tree(2), {0: 1, 1: 1})
    profile = turning_point_tau(t, leaf_counts(t, [0, 1]))
    with pytest.raises(ValueError):
        bound_rwgm_hst(profile, BoundParams.for_height(lam=t.lam + 1.0, n=2, height=3))


def test_bound_envelope_stays_below_lam_times_opt():
    rng = np.random.default_rng(11)
    for trial in range(25):
        tree, inst = random_tree_instance(rng, int(rng.integers(1, 4)), 8, lam=3.0)
        profile = turning_point_tau(tree, leaf_counts(tree, inst.requests))
        opt = hst_cost_from_tau(profile, tree)
        bound = bound_rwgm_hst(profile, BoundParams.for_height(tree.lam, 8, tree.height))
        if opt > 0:
            assert bound < tree.lam * opt
        else:
            assert bound == 0.0


def test_expected_moves_bound_values():
    t = with_multiplicity(height1_tree(2), {0: 1, 1: 0})
    profile = turning_point_tau(t, leaf_counts(t, [1]))
    assert expected_moves_bound(profile, 1) == pytest.approx(1.0)

    raw = RawTree(parent=[None, 0, 0, 1, 2], level=[2, 1, 1, 0, 0], leaf_point={3: 0, 4: 1}, lam=3.0)
    t2 = with_multiplicity(normalize_hst(raw), {0: 1, 1: 0})
    profile2 = turning_point_tau(t2, leaf_counts(t2, [1]))
    base = 1.0 + math.log(7)
    assert expected_moves_bound(profile2, 7) == pytest.approx(base + base**2, rel=1e-12)
    assert expected_moves_bound(profile2, 7) == pytest.approx(11.63, abs=1e-2)

    zero = turning_point_tau(t2, leaf_counts(t2, [0]), server_count={t2.point_leaf[0]: 1, t2.point_leaf[1]: 0})
    assert expected_moves_bound(zero, 7) == 0.0


def test_discretized_optimum_within_twice_opt():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n = int(rng.integers(1, 8))
        inst = generate_instance(GeneratorSpec("euclidean", n, seed=int(rng.integers(2**32))))
        opt = optimal_matching(inst).cost
        disc = Instance(metric=inst.metric, servers=inst.servers, requests=discretize_all(inst))
        opt_disc = optimal_matching(disc).cost
        assert opt_disc <= 2.0 * opt + 1e-9 * max(1.0, opt)
