"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance is fixed here; statistical criteria use three standard errors
around Monte Carlo means under pinned seeds.
"""
import math

import numpy as np

from helpers import (
    brute_force_cost,
    harmonic,
    height1_tree,
    play_on_tree,
    random_tree_instance,
    tree_distance,
    uniform_bound,
    with_multiplicity,
)
from hstmatch.generators import (
    GeneratorSpec,
    euclidean_metric,
    generate_instance,
    line_metric,
    uniform_metric,
)
from hstmatch.harness import derive_seed, report_to_dict, run_pipeline, sweep, sweep_csv
from hstmatch.hst import (
    EmbeddingParams,
    count_servers,
    frt_embed,
    lambda_for_n,
)
from hstmatch.metric import Instance
from hstmatch.online import discretize_all
from hstmatch.oracle import (
    bound_rwgm_hst,
    expected_moves_bound,
    hst_cost_from_tau,
    optimal_matching,
    turning_point_tau,
)


def _report(ok: bool, line: str) -> None:
    print(("PASS " if ok else "FAIL ") + line, flush=True)
    assert ok, line


def test_criterion_01_harmonic_identity():
    hs = [harmonic(n) for n in range(0, 1001)]
    worst = 0.0
    for n in range(1, 1001):
        rhs = 1.0 + math.fsum(hs[1:n]) / n
        worst = max(worst, abs(hs[n] - rhs))
    _report(worst <= 1e-12, f"criterion 1: harmonic identity for n <= 1000, worst error {worst:.3e} <= 1e-12")


def test_criterion_02_oracle_matches_brute_force():
    rng = np.random.default_rng(derive_seed(2024, 2))
    checked = 0
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 8))
        kind = trial % 3
        if kind == 0:
            inst = generate_instance(GeneratorSpec("euclidean", n, seed=int(rng.integers(2**32)), dim=int(rng.integers(1, 4))))
        elif kind == 1:
            inst = generate_instance(GeneratorSpec("line", n, seed=int(rng.integers(2**32))))
        else:
            # Uniform metric with repeated points, to exercise tie handling.
            u = int(rng.integers(2, 6))
            m = uniform_metric(u)
            inst = Instance(
                metric=m,
                servers=tuple(int(x) for x in rng.integers(0, u, n)),
                requests=tuple(int(x) for x in rng.integers(0, u, n)),
            )
        exact = optimal_matching(inst).cost
        brute = brute_force_cost(inst)
        worst = max(worst, abs(exact - brute) / max(1.0, brute))
        checked += 1
    _report(
        checked == 200 and worst <= 1e-9,
        f"criterion 2: assignment oracle equals brute force on {checked} instances, worst rel err {worst:.3e} <= 1e-9",
    )


def test_criterion_03_turning_point_cost_formula():
    rng = np.random.default_rng(derive_seed(2024, 3))
    checked = 0
    worst = 0.0
    for _ in range(200):
        height = int(rng.integers(1, 4))
        n = int(rng.integers(1, 8))
        tree, inst = random_tree_instance(rng, height, n, lam=1.5 + 2.0 * float(rng.random()))
        from_tau = hst_cost_from_tau(tree, turning_point_tau(tree, inst.requests))
        exact = optimal_matching(inst).cost
        worst = max(worst, abs(from_tau - exact) / max(1.0, exact))
        checked += 1
    _report(
        checked == 200 and worst <= 1e-9,
        f"criterion 3: turning-point cost equals oracle on {checked} tree instances, worst rel err {worst:.3e} <= 1e-9",
    )


def _random_16pt_metric(rng, kind: int):
    if kind == 0:
        return euclidean_metric(rng.random((16, 2)))
    if kind == 1:
        return euclidean_metric(rng.random((16, 3)))
    return line_metric(rng.uniform(0.0, 50.0, 16))


def test_criterion_04_domination_exact():
    rng = np.random.default_rng(derive_seed(2024, 4))
    lams = (2.0, lambda_for_n(16), 6.0)
    embeddings = 0
    ok = True
    for metric_idx in range(50):
        m = _random_16pt_metric(rng, metric_idx % 3)
        counts = count_servers(m, ())
        for s in range(20):
            t = frt_embed(counts, EmbeddingParams(lam=lams[(metric_idx + s) % 3], seed=int(rng.integers(2**63))))
            embeddings += 1
            for i in range(16):
                li = t.point_leaf[i]
                for j in range(i + 1, 16):
                    if tree_distance(t, li, t.point_leaf[j]) < m.dist[i, j] * (1 - 1e-12):
                        ok = False
    _report(
        ok and embeddings == 1000,
        f"criterion 4: domination holds for every pair across {embeddings} embeddings (rel slack 1e-12)",
    )


def _mean_stretch(metric, trials: int, seed_key: int) -> float:
    rng = np.random.default_rng(derive_seed(2024, 5, seed_key))
    pairs = [(i, j) for i in range(len(metric)) for j in range(len(metric)) if i < j]
    sums = np.zeros(len(pairs))
    counts = count_servers(metric, ())
    for _ in range(trials):
        t = frt_embed(counts, EmbeddingParams(lam=2.0, seed=int(rng.integers(2**63))))
        for pi, (i, j) in enumerate(pairs):
            sums[pi] += tree_distance(t, t.point_leaf[i], t.point_leaf[j]) / metric.dist[i, j]
    return float(sums.max()) / trials


def test_criterion_05_distortion_envelope():
    envelope = 16 * 2.0 * math.log(16) / math.log(2.0)
    uniform_worst = _mean_stretch(uniform_metric(16), 10_000, 0)
    euclid = euclidean_metric(np.random.default_rng(derive_seed(2024, 5, 99)).random((16, 2)))
    euclid_worst = _mean_stretch(euclid, 10_000, 1)
    ok = uniform_worst <= envelope and euclid_worst <= envelope
    _report(
        ok,
        "criterion 5: per-pair mean stretch over 10000 embeddings "
        f"(uniform {uniform_worst:.2f}, euclidean {euclid_worst:.2f}) <= {envelope:.1f}",
    )


def test_criterion_06_uniform_case_bound():
    episodes = 20_000
    ok = True
    worst_slack = math.inf
    exact_line = ""
    for q in range(1, 9):
        for delta in range(0, q + 1):
            tree = with_multiplicity(
                height1_tree(q + delta),
                {p: (1 if p < q else 0) for p in range(q + delta)},
            )
            requests = tuple(range(q, q + delta)) + tuple(range(0, q - delta))
            rng = np.random.default_rng(derive_seed(2024, 6, q, delta))
            moves = np.empty(episodes)
            for e in range(episodes):
                _, mv = play_on_tree(tree, requests, rng)
                moves[e] = mv
            mean = float(moves.mean())
            se = float(moves.std(ddof=1)) / math.sqrt(episodes)
            bound = uniform_bound(q, delta)
            slack = bound + 3 * se - mean
            worst_slack = min(worst_slack, slack)
            if slack < 0:
                ok = False
            if (q, delta) == (2, 1):
                exact_ok = abs(mean - 1.5) <= 3 * se
                ok = ok and exact_ok
                exact_line = f"; exact case q=2 d=1 mean {mean:.4f} within 3se of 1.5"
    _report(
        ok,
        f"criterion 6: uniform-case move bound holds for all q <= 8, d <= q "
        f"(20000 episodes, worst slack {worst_slack:+.4f}){exact_line}",
    )


def test_criterion_07_discretization_chain():
    rng = np.random.default_rng(derive_seed(2024, 7))
    ok = True
    decisions = 0
    for trial in range(200):
        n = int(rng.integers(1, 8))
        inst = generate_instance(GeneratorSpec("euclidean", n, seed=int(rng.integers(2**32))))
        opt = optimal_matching(inst).cost
        disc = Instance(metric=inst.metric, servers=inst.servers, requests=discretize_all(inst))
        opt_disc = optimal_matching(disc).cost
        if opt_disc > 2.0 * opt + 1e-9 * max(1.0, opt):
            ok = False
        # check=True asserts the per-request inequality on every decision.
        run_pipeline(inst, master_seed=int(rng.integers(2**32)), episodes=2, check=True)
        decisions += 2 * n
    _report(
        ok,
        f"criterion 7: discretized optimum <= 2*opt on 200 instances and the per-request "
        f"inequality held on {decisions} logged decisions",
    )


def test_criterion_08_star_separation():
    ok = True
    parts = []
    for k in (2, 4, 8, 16):
        inst = generate_instance(GeneratorSpec("star", k, seed=0))
        from hstmatch.harness import run_algorithm

        greedy_mean = report_to_dict(run_algorithm(inst, "greedy", master_seed=0, episodes=1))["mean_ratio"]
        exact = abs(greedy_mean - (2 * k - 1)) <= 1e-9 * (2 * k - 1)
        rwgm_report = report_to_dict(run_pipeline(inst, master_seed=derive_seed(2024, 8, k), episodes=2000))
        envelope = 2 * harmonic(k) + 1
        within = rwgm_report["mean_ratio"] <= envelope + 3 * rwgm_report["std_error"]
        ok = ok and exact and within
        parts.append(f"k={k}: greedy {greedy_mean:.0f}, rwgm {rwgm_report['mean_ratio']:.3f} <= {envelope:.3f}+3se")
    _report(ok, "criterion 8: star separation (" + "; ".join(parts) + ")")


def test_criterion_09_hst_envelope():
    rng = np.random.default_rng(derive_seed(2024, 9))
    episodes = 2000
    ok = True
    parts = []
    for height, n in ((1, 12), (2, 24), (2, 48), (3, 40), (3, 64)):
        lam = lambda_for_n(n)
        while True:  # redraw the rare instance whose envelope is trivially zero
            tree, inst = random_tree_instance(rng, height, n, lam=lam)
            tau = turning_point_tau(tree, inst.requests)
            if any(tau):
                break
        cost_bound = bound_rwgm_hst(tree, tau)
        moves_bound = expected_moves_bound(tree, tau, n)
        costs = np.empty(episodes)
        moves = np.empty(episodes)
        for e in range(episodes):
            c, mv = play_on_tree(tree, inst.requests, rng)
            costs[e] = c
            moves[e] = mv
        cost_se = float(costs.std(ddof=1)) / math.sqrt(episodes)
        move_se = float(moves.std(ddof=1)) / math.sqrt(episodes)
        cost_ok = costs.mean() <= cost_bound + 3 * cost_se
        move_ok = moves.mean() <= moves_bound + 3 * move_se
        ok = ok and cost_ok and move_ok
        parts.append(
            f"h={height},n={n}: cost {costs.mean():.1f}<={cost_bound:.1f}, moves {moves.mean():.1f}<={moves_bound:.1f}"
        )
    _report(ok, "criterion 9: tree-cost and move-count envelopes hold (" + "; ".join(parts) + ")")


def test_criterion_10_end_to_end_scaling():
    sizes = [8, 16, 32, 64, 128]
    ok = True
    parts = []

    star_rows = sweep("star", sizes, ["greedy"], episodes=1, master_seed=derive_seed(2024, 10, 0))
    linear = all(abs(mean - (2 * n - 1)) <= 1e-9 * (2 * n - 1) for n, _, mean, _ in star_rows)
    ok = ok and linear
    parts.append("greedy on star = 2n-1 exactly")

    for fam_idx, family in enumerate(("nested-uniform", "line")):
        rows = sweep(family, sizes, ["rwgm"], episodes=400, master_seed=derive_seed(2024, 10, 1 + fam_idx))
        means = [mean for _, _, mean, _ in rows]
        env_ok = all(
            mean <= 8 * math.log(n) ** 3 / math.log(math.log(n)) for (n, _, mean, _) in rows
        )
        per_n = [mean / n for (n, _, mean, _) in rows]
        sublinear = all(b < a for a, b in zip(per_n, per_n[1:]))
        ok = ok and env_ok and sublinear
        parts.append(f"{family} ratios {['%.2f' % m for m in means]} sublinear, under 8ln^3(n)/lnln(n)")
    _report(ok, "criterion 10: " + "; ".join(parts))


def test_criterion_11_sweep_reproducibility():
    kwargs = dict(episodes=100, master_seed=31337)
    first = sweep_csv(sweep("line", [8, 16], ["rwgm", "greedy"], **kwargs))
    second = sweep_csv(sweep("line", [8, 16], ["rwgm", "greedy"], **kwargs))
    same = first.encode() == second.encode()
    _report(same, f"criterion 11: sweep re-run is byte-identical ({len(first.encode())} bytes)")
