import importlib.machinery
import math
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hstmatch
from helpers import (
    RawTree,
    brute_force_cost,
    harmonic,
    height1_tree,
    normalize_hst,
    random_tree_instance,
    tree_distance,
    uniform_bound,
    with_multiplicity,
)
from hstmatch.generators import GeneratorSpec, generate_instance, line_metric, uniform_metric
from hstmatch.metric import FiniteMetric, Instance
from hstmatch import hst, oracle
from hstmatch.hst import HstTree
from hstmatch.online import discretize_all
from hstmatch.oracle import (
    bound_rwgm_hst,
    expected_moves_bound,
    hst_cost_from_tau,
    optimal_matching,
    turning_point_tau,
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
    assert om.served == (0, 3)  # request points 1 and 2, in request order


def test_optimal_matching_serves_each_request_its_assigned_server():
    # The solver's (server instance, request) pairs, read one at a time, against the one gather.
    for n, seed in ((1, 0), (7, 1), (24, 2)):
        for family in ("line", "star", "nested-uniform"):
            inst = generate_instance(GeneratorSpec(family, n, seed=seed))
            srv, req = list(inst.servers), list(inst.requests)
            rows, cols = oracle._linear_sum_assignment()(inst.metric.dist[np.ix_(srv, req)])
            served = [None] * n
            for i, j in zip(rows.tolist(), cols.tolist()):
                served[j] = srv[i]
            om = optimal_matching(inst)
            assert type(om.served) is tuple and om.served == tuple(served)
            assert all(type(s) is int for s in om.served)


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
    tau = turning_point_tau(t, [0, 0, 1])
    assert tau == (0,) * t.n_nodes
    assert hst_cost_from_tau(t, tau) == 0.0


def test_tau_single_cross_pair():
    t = with_multiplicity(height1_tree(2, scale=1.0), {0: 1, 1: 0})
    tau = turning_point_tau(t, [1])
    assert tau[t.root] == 1
    assert hst_cost_from_tau(t, tau) == pytest.approx(2.0)


def test_tau_rejects_unbalanced_totals():
    t = with_multiplicity(height1_tree(2), {0: 2, 1: 0})
    with pytest.raises(ValueError):
        turning_point_tau(t, [1])


def test_tau_cost_matches_oracle_on_random_trees():
    rng = np.random.default_rng(5)
    for trial in range(40):
        height = int(rng.integers(1, 4))
        n = int(rng.integers(1, 8))
        tree, inst = random_tree_instance(rng, height, n, lam=2.0 + float(rng.random()))
        tau = turning_point_tau(tree, inst.requests)
        cost = hst_cost_from_tau(tree, tau)
        assert cost == pytest.approx(optimal_matching(inst).cost, rel=1e-9, abs=1e-12)
        # Total tau counts exactly the pairs no leaf can absorb locally.
        req = Counter(tree.point_leaf[p] for p in inst.requests)
        cross = n - sum(min(req[leaf], tree.servers[leaf]) for leaf in tree.leaves)
        assert len(tau) == tree.n_nodes
        assert sum(tau) == cross
        assert all(tau[leaf] == 0 for leaf in tree.leaves)


def test_hst_cost_single_pair_height_two():
    raw = RawTree(
        parent=[None, 0, 0, 1, 2],
        level=[2, 1, 1, 0, 0],
        leaf_point={3: 0, 4: 1},
        lam=3.0,
    )
    t = with_multiplicity(normalize_hst(raw), {0: 1, 1: 0})
    tau = turning_point_tau(t, [1])
    assert hst_cost_from_tau(t, tau) == pytest.approx(8.0)
    assert hst_cost_from_tau(t, tau) == pytest.approx(
        tree_distance(t, t.point_leaf[0], t.point_leaf[1])
    )


def test_bound_params_coefficients():
    # One cross pair meeting at level h bounds at 2 * sum_{i<=h} c_i lam^i, so
    # consecutive heights recover c_h.
    lam = 4.0
    bounds = [0.0]
    for h in range(1, 11):
        raw = RawTree(parent=[None, 0, 0], level=[h, h - 1, h - 1], leaf_point={1: 0, 2: 1}, lam=lam)
        t = with_multiplicity(normalize_hst(raw), {0: 1, 1: 0})
        tau = turning_point_tau(t, [1])
        assert max(lv for lv, k in zip(t.level, tau) if k) == h  # the highest turning level
        bounds.append(bound_rwgm_hst(t, tau))
    c = [(b - a) / (2.0 * lam**h) for h, (a, b) in enumerate(zip(bounds, bounds[1:]), start=1)]
    assert c[0] == 0.5
    assert all(ch < 1.0 for ch in c)
    assert all(b > a for a, b in zip(c, c[1:]))
    for h, ch in enumerate(c, start=1):
        assert ch == pytest.approx(1.0 - 0.5**h, abs=1e-15)


def test_bound_rwgm_trivial_cases():
    t = with_multiplicity(height1_tree(2), {0: 1, 1: 1})
    zero = turning_point_tau(t, [0, 1])
    assert not any(zero)
    assert bound_rwgm_hst(t, zero) == 0.0
    one = turning_point_tau(t, [0, 0])
    assert bound_rwgm_hst(t, one) == pytest.approx(t.lam)  # 2 * c_1 * lam


def test_bound_envelope_stays_below_lam_times_opt():
    rng = np.random.default_rng(11)
    for trial in range(25):
        tree, inst = random_tree_instance(rng, int(rng.integers(1, 4)), 8, lam=3.0)
        tau = turning_point_tau(tree, inst.requests)
        opt = hst_cost_from_tau(tree, tau)
        bound = bound_rwgm_hst(tree, tau)
        if opt > 0:
            assert bound < tree.lam * opt
        else:
            assert bound == 0.0


def test_expected_moves_bound_values():
    t = with_multiplicity(height1_tree(2), {0: 1, 1: 0})
    tau = turning_point_tau(t, [1])
    assert expected_moves_bound(t, tau, 1) == pytest.approx(1.0)

    raw = RawTree(parent=[None, 0, 0, 1, 2], level=[2, 1, 1, 0, 0], leaf_point={3: 0, 4: 1}, lam=3.0)
    t2 = with_multiplicity(normalize_hst(raw), {0: 1, 1: 0})
    tau2 = turning_point_tau(t2, [1])
    base = 1.0 + math.log(7)
    assert expected_moves_bound(t2, tau2, 7) == pytest.approx(base + base**2, rel=1e-12)
    assert expected_moves_bound(t2, tau2, 7) == pytest.approx(11.63, abs=1e-2)

    zero = turning_point_tau(t2, [0])
    assert expected_moves_bound(t2, zero, 7) == 0.0


def _chain_tree(height: int, turn: int, lam: float) -> HstTree:
    """Points 0 and 1 on leaves meeting at level ``turn``, point 2 on a leaf meeting them at the root."""
    parent = [None] + list(range(height - turn))  # node i sits at level height - i, down to level turn
    level = list(range(height, turn - 1, -1))
    parent += [height - turn, height - turn, 0]
    level += [turn - 1, turn - 1, height - 1]
    n = len(parent)
    leaf_point = {n - 3: 0, n - 2: 1, n - 1: 2}
    return with_multiplicity(normalize_hst(RawTree(parent, level, leaf_point, lam=lam)), {0: 1})


def test_moves_bound_refuses_a_sum_beyond_the_float_range():
    # A legal draw: two classes at lam = 1.01 and height 800 pass the embedding's budget.
    hst._check_budget(800, 2, 1.01, 1.0)
    t = _chain_tree(800, 800, lam=1.01)
    tau = turning_point_tau(t, [1])
    assert [(t.level[u], k) for u, k in enumerate(tau) if k] == [(800, 1)]
    assert hst_cost_from_tau(t, tau) == pytest.approx(572766.2, abs=0.1)
    assert bound_rwgm_hst(t, tau) == pytest.approx(578491.8, abs=0.1)
    with pytest.raises(ValueError, match=r"^expected_moves_bound at n=7 overflows: a pair turns at level 800$"):
        expected_moves_bound(t, tau, 7)
    assert expected_moves_bound(t, tau, 1) == 800.0  # (1 + ln 1)**i is 1 at every level


def test_bounds_read_only_the_levels_up_to_the_highest_turn():
    # On the same tall tree a pair that turns at level 1 bounds as on a height-1 tree;
    # a table sized by the tree's height would overflow on (1 + ln 7)**800.
    t = _chain_tree(800, 1, lam=1.01)
    tau = turning_point_tau(t, [1])
    assert [(t.level[u], k) for u, k in enumerate(tau) if k] == [(1, 1)]
    assert hst_cost_from_tau(t, tau) == 2.0
    assert bound_rwgm_hst(t, tau) == 2.0 * 0.5 * 1.01
    assert expected_moves_bound(t, tau, 7) == 1.0 + math.log(7)
    with pytest.raises(OverflowError):
        (1.0 + math.log(7)) ** 800


def test_rwgm_bound_refuses_a_power_beyond_the_float_range():
    t = with_multiplicity(height1_tree(2, lam=1e200), {0: 1})
    tau = turning_point_tau(t, [1])
    assert bound_rwgm_hst(t, tau) == pytest.approx(1e200)
    t = _chain_tree(2, 2, lam=1e200)
    with pytest.raises(ValueError, match=r"^bound_rwgm_hst at lam=1e\+200 overflows: a pair turns at level 2$"):
        bound_rwgm_hst(t, turning_point_tau(t, [1]))


def point_rule_message(name: str, bad) -> str:
    """What the one point-index rule says of entry 1 = bad over the points 0..2."""
    if isinstance(bad, (int, np.integer)) and not isinstance(bad, bool):
        return f"{name}[1] = {bad} outside 0..2"
    return f"{name}[1] = {bad!r} is not an integer point index"


@pytest.mark.parametrize("bad", [-1, 3, 1.0, True, "1", np.float64(0.0), None])
def test_tau_refuses_requests_that_are_not_integer_points_of_the_tree(bad):
    t = with_multiplicity(height1_tree(3), {0: 1, 1: 1})
    with pytest.raises(ValueError, match=f"^{re.escape(point_rule_message('requests', bad))}$"):
        turning_point_tau(t, [0, bad])
    assert turning_point_tau(t, [np.int64(2), np.uint8(2)]) == turning_point_tau(t, [2, 2])


@pytest.mark.parametrize("bad", [-1, 3, 1.0, True, "1", None, 2**70])
def test_instance_count_servers_and_tau_refuse_a_bad_point_alike(bad):
    # One rule checks every point multiset: the same entry gets the same text wherever it is refused.
    m, t = uniform_metric(3), with_multiplicity(height1_tree(3), {0: 1, 1: 1})
    refusals = {
        "servers": [
            lambda: Instance(metric=m, servers=(0, bad), requests=(0, 1)),
            lambda: hst.count_servers(m, [0, bad]),
        ],
        "requests": [
            lambda: Instance(metric=m, servers=(0, 1), requests=(0, bad)),
            lambda: turning_point_tau(t, [0, bad]),
        ],
    }
    for name, calls in refusals.items():
        for call in calls:
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == point_rule_message(name, bad)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    height=st.integers(1, 4),
    n=st.integers(1, 8),
    lam=st.sampled_from([1.5, 2.0, 3.7]),
)
def test_tau_counts_the_solved_pairs_meeting_at_each_node(seed, height, n, lam):
    # With positive edge weights every optimal matching crosses the edge above v
    # exactly |b(v)| times, so whichever optimum the solver returns, its pairs
    # meet at each node as often as tau says.
    t, inst = random_tree_instance(np.random.default_rng(seed), height, n, lam=lam)
    counts = [0] * t.n_nodes
    for r, s in zip(inst.requests, optimal_matching(inst).served):
        a, b = t.point_leaf[r], t.point_leaf[s]
        if a != b:
            while a != b:
                a, b = t.parent[a], t.parent[b]
            counts[a] += 1
    assert turning_point_tau(t, inst.requests) == tuple(counts)


def test_discretized_optimum_within_twice_opt():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n = int(rng.integers(1, 8))
        inst = generate_instance(GeneratorSpec("euclidean", n, seed=int(rng.integers(2**32))))
        opt = optimal_matching(inst).cost
        disc = Instance(metric=inst.metric, servers=inst.servers, requests=discretize_all(inst))
        opt_disc = optimal_matching(disc).cost
        assert opt_disc <= 2.0 * opt + 1e-9 * max(1.0, opt)


def assignment_matrices():
    """Random, tie-heavy integer, and repeated-server (duplicate row) cost matrices."""
    rng = np.random.default_rng(2026)
    mats = []
    for n in (1, 2, 5, 40, 150):
        mats.append(rng.random((n, n)))
        mats.append(rng.integers(0, 3, (n, n)).astype(float))
        points = rng.random((max(1, n // 3), n))
        mats.append(points[rng.integers(0, len(points), n)])
    return mats


# Solves every matrix with the solver optimal_matching uses, before anything
# imports scipy.optimize, then again through scipy.optimize imported afterwards.
SOLVER_SCRIPT = """
import sys
import numpy as np
from hstmatch.oracle import _linear_sum_assignment
mats = np.load(sys.argv[1])
solve = _linear_sum_assignment()
assert not any(name.startswith("scipy.optimize") for name in sys.modules), "solver left scipy.optimize loaded"
first = [solve(mats[k]) for k in mats.files]
import scipy.optimize
assert scipy.optimize._lsap.linear_sum_assignment is solve
later = [scipy.optimize.linear_sum_assignment(mats[k]) for k in mats.files]
np.savez(sys.argv[2], *[a for rows_cols in first + later for a in rows_cols])
"""


def test_loaded_solver_matches_public_scipy(tmp_path):
    from scipy.optimize import linear_sum_assignment

    mats = assignment_matrices()
    np.savez(tmp_path / "mats.npz", *mats)
    src = Path(hstmatch.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", SOLVER_SCRIPT, tmp_path / "mats.npz", tmp_path / "out.npz"],
        cwd=src,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    out = np.load(tmp_path / "out.npz")
    arrays = [out[f"arr_{i}"] for i in range(len(out.files))]
    first, later = arrays[: 2 * len(mats)], arrays[2 * len(mats) :]
    for k, m in enumerate(mats):
        rows, cols = linear_sum_assignment(m)
        for solved in (first, later):
            assert np.array_equal(solved[2 * k], rows) and np.array_equal(solved[2 * k + 1], cols)


@pytest.mark.parametrize("failure", ["missing-file", "load-error"])
def test_solver_falls_back_to_public_import(monkeypatch, failure):
    import scipy.optimize

    inst = generate_instance(GeneratorSpec("euclidean", 30, seed=8))
    expected = optimal_matching(inst)
    public = scipy.optimize.linear_sum_assignment
    calls = []

    def spy(cost):
        calls.append(cost.shape)
        return public(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy)
    if failure == "missing-file":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
        with pytest.raises(ImportError):
            oracle._load_lsap()
    else:

        def fail():
            raise OSError("cannot load")

        monkeypatch.setattr(oracle, "_load_lsap", fail)
    oracle._linear_sum_assignment.cache_clear()
    try:
        assert oracle._linear_sum_assignment() is spy
        assert optimal_matching(inst) == expected
        assert calls == [(30, 30)]
    finally:
        oracle._linear_sum_assignment.cache_clear()
