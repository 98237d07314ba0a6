import importlib.util
import math
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import harmonic, left_to_right_total, record_decisions, reference_trace_csv
from hstmatch import harness, hst, metric
from hstmatch.generators import GeneratorSpec, generate_instance, line_metric, uniform_metric
from hstmatch.harness import (
    ALGORITHMS,
    derive_seed,
    pipeline_setup,
    run_algorithm,
    run_episode,
    run_pipeline,
    sweep,
    sweep_csv,
    trace_csv,
    report_to_dict,
)
from hstmatch.hst import EmbeddingParams, frt_embed
from hstmatch.metric import FiniteMetric, Instance, instance_from_dict, instance_to_dict, submetric_of_servers
from hstmatch.online import run_greedy
from hstmatch.oracle import optimal_matching
from test_golden import MULTI


def test_derive_seed_is_stable_and_keyed():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(7, 1, 2) != derive_seed(8, 1, 2)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    words=st.integers(1, 5),
    master=st.integers(0, 2**160 - 1),
    numpy_type=st.sampled_from((None, np.uint8, np.int32, np.uint64)),
    start=st.one_of(st.integers(0, 3000), st.integers(2**32 - 2100, 2**32 - 1)),
    count=st.integers(1, 2100),
)
@example(words=1, master=0, numpy_type=None, start=0, count=3)
@example(words=1, master=2**32 - 1, numpy_type=None, start=harness._SEED_BLOCK - 2, count=4)
@example(words=2, master=2**32, numpy_type=None, start=2**32 - 3, count=3)
@example(words=5, master=2**128, numpy_type=None, start=0, count=harness._SEED_BLOCK + 1)
def test_episode_seed_blocks_equal_derive_seed(words, master, numpy_type, start, count):
    # Masters of 1 to 5 uint32 words, some as numpy integers, and episode
    # ranges that cross a block boundary or end at the last index, 2**32 - 1.
    master %= 2 ** (32 * words)
    if numpy_type is not None:
        master = numpy_type(master % (np.iinfo(numpy_type).max + 1))
    stop = min(start + count, 2**32)
    blocks = list(harness._episode_seeds(master, start, stop))
    assert [len(block) for block in blocks[:-1]] == [harness._SEED_BLOCK] * (len(blocks) - 1)
    got = [pair for block in blocks for pair in block]
    assert got == [(derive_seed(master, e, 0), derive_seed(master, e, 1)) for e in range(start, stop)]
    assert all(type(seed) is int for pair in got for seed in pair)


def test_run_algorithm_refuses_more_episodes_than_32_bit_indices():
    inst = generate_instance(GeneratorSpec("star", 2, seed=0))
    for tag in ALGORITHMS:
        _one_line_value_error(
            lambda: run_algorithm(inst, tag, master_seed=0, episodes=2**32 + 1),
            r"^episodes must be a positive integer at most 2\*\*32, got 4294967297$",
        )
    _one_line_value_error(lambda: sweep("star", [2], ["rwgm"], episodes=2**32 + 1, master_seed=0), "at most 2")


def test_zero_opt_instances_report_absolute_cost():
    m = uniform_metric(3)
    inst = Instance(metric=m, servers=(0, 0, 1), requests=(0, 1, 0))
    report = report_to_dict(run_pipeline(inst, master_seed=1, episodes=10))
    assert report["kind"] == "absolute-cost"
    assert report["opt"] == 0.0
    assert report["mean_cost"] == 0.0  # every request lands on its own server point
    assert "mean_ratio" not in report


def test_ratios_never_beat_the_oracle():
    for seed in range(5):
        inst = generate_instance(GeneratorSpec("euclidean", 5, seed=seed))
        report = report_to_dict(run_pipeline(inst, master_seed=seed, episodes=40, check=True))
        assert report["kind"] == "ratio"
        assert report["min"] >= 1.0 - 1e-9


def test_pipeline_episodes_match_run_episode_streams():
    # Episode costs come from disjoint (master, episode) streams, so playing
    # any episode on its own reproduces the cost the batch run saw.
    inst = generate_instance(GeneratorSpec("line", 6, seed=3))
    setup = pipeline_setup(inst)
    report = report_to_dict(run_pipeline(inst, master_seed=5, episodes=12))
    requests = np.asarray(inst.requests)
    singles = [
        left_to_right_total(inst.metric.dist[requests, run_episode(setup, derive_seed(5, e, 0), derive_seed(5, e, 1))])
        for e in range(12)
    ]
    assert report["mean_ratio"] == pytest.approx(float(np.mean(singles)) / report["opt"], rel=1e-12)
    permuted = [singles[i] for i in (5, 2, 0, 11, 7, 1, 3, 10, 4, 9, 6, 8)]
    assert sorted(permuted) == sorted(singles)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    coords=st.lists(st.integers(0, 4), min_size=1, max_size=8),  # repeated coordinates: distance zero
    pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=12),
    master=st.integers(0, 2**32),
    algorithm=st.sampled_from(("rwgm", "rwgm-proportional")),
)
@example(coords=[5, 0, 5, 5], pairs=[(3, 1), (0, 1), (2, 1), (0, 1), (3, 0)], master=0, algorithm="rwgm")
@example(coords=[5, 0, 5, 5], pairs=[(3, 1), (0, 1), (2, 1), (0, 1), (3, 0)], master=0, algorithm="rwgm-proportional")
def test_episodes_serve_every_server_instance_once_lowest_index_first_per_leaf(coords, pairs, master, algorithm):
    metric = line_metric(coords)
    servers = tuple(a % len(coords) for a, _ in pairs)  # at most 8 points for up to 12 servers
    requests = tuple(b % len(coords) for _, b in pairs)
    setup = pipeline_setup(Instance(metric, servers, requests))
    embed_seed, play_seed = derive_seed(master, 0, 0), derive_seed(master, 0, 1)
    served = run_episode(setup, embed_seed, play_seed, algorithm=algorithm, check=True)
    assert Counter(served) == Counter(servers)

    # The episode's tree, drawn again: server points at distance zero share a leaf.
    _, mapping = submetric_of_servers(setup.inst)
    tree = frt_embed(setup.servers, EmbeddingParams(lam=setup.lam, seed=embed_seed))
    used_at: dict = {}
    for s in served:
        used_at.setdefault(tree.point_leaf[mapping[s]], []).append(s)
    for used in used_at.values():
        assert used == sorted(used)


def test_episodes_call_the_embedding_and_matcher_through_harness_names(monkeypatch):
    # perfbench/traced.py times these layers by replacing harness's module
    # attributes; a call that bypassed them would make its metrics read 0.
    calls = Counter()
    for name in ("frt_embed", "attach_servers", "rwgm_init", "rwgm_serve"):
        def counted(*args, _fn=getattr(harness, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    inst = generate_instance(GeneratorSpec("line", 6, seed=3))
    run_pipeline(inst, master_seed=2, episodes=5)
    assert calls == {"frt_embed": 5, "attach_servers": 5, "rwgm_init": 5, "rwgm_serve": 5 * inst.n}


def test_a_run_computes_the_zero_distance_classes_once(monkeypatch):
    calls = []
    original = hst._zero_distance_classes
    monkeypatch.setattr(hst, "_zero_distance_classes", lambda d: calls.append(d.shape) or original(d))
    inst = generate_instance(GeneratorSpec("line", 6, seed=3))
    run_pipeline(inst, master_seed=2, episodes=5)
    assert calls == [(6, 6)]  # the server submetric's, in pipeline_setup


def test_a_loaded_instance_is_checked_at_load_and_not_by_its_runs(monkeypatch):
    calls = []
    original = metric.validate_metric
    monkeypatch.setattr(metric, "validate_metric", lambda m: calls.append(len(m)) or original(m))
    inst = instance_from_dict(instance_to_dict(generate_instance(GeneratorSpec("euclidean", 6, seed=8))))
    assert calls == [6]  # once, on the server submetric
    run_pipeline(inst, master_seed=2, episodes=5)
    for tag in ALGORITHMS:
        run_algorithm(inst, tag, master_seed=2, episodes=3)
    assert calls == [6]


def test_pipeline_is_reproducible():
    inst = generate_instance(GeneratorSpec("euclidean", 6, seed=8))
    a = run_pipeline(inst, master_seed=11, episodes=25)
    b = run_pipeline(inst, master_seed=11, episodes=25)
    assert a.totals.tolist() == b.totals.tolist()
    assert report_to_dict(a) == report_to_dict(b)


def test_nested_uniform_two_pipeline_is_deterministic():
    # With nearest-server discretization breaking its tie toward the lowest
    # index, both decisions of this instance are forced: the unshared request
    # self-matches through its image, and the shared request then crosses.
    # Branch enumeration therefore gives cost exactly 2 and opt 1.
    inst = generate_instance(GeneratorSpec("nested-uniform", 2, seed=0))
    report = report_to_dict(run_pipeline(inst, master_seed=17, episodes=50, check=True))
    assert report["kind"] == "ratio"
    assert report["min"] == report["max"] == report["mean_ratio"] == pytest.approx(2.0)


def test_run_algorithm_optimal_and_greedy():
    inst = generate_instance(GeneratorSpec("star", 8, seed=0))
    record = run_algorithm(inst, "optimal", master_seed=0, episodes=7)
    report = report_to_dict(record)
    assert len(record.totals) == report["episodes"] == 1 and report["mean_ratio"] == pytest.approx(1.0)
    assert record.totals.tolist() == [pytest.approx(1.0)]
    assert (record.algorithm, record.master_seed, record.opt) == ("optimal", 0, pytest.approx(1.0))

    record = run_algorithm(inst, "greedy", master_seed=0, episodes=7)
    report = report_to_dict(record)
    assert len(record.totals) == report["episodes"] == 1
    assert report["mean_ratio"] == pytest.approx(15.0)  # the 2k-1 cascade
    assert record.served.shape == record.costs.shape == (1, 8)


def test_run_algorithm_rwgm_deterministic_given_seed():
    inst = generate_instance(GeneratorSpec("star", 4, seed=0))
    ra = run_algorithm(inst, "rwgm", master_seed=2, episodes=1)
    rb = run_algorithm(inst, "rwgm", master_seed=2, episodes=1)
    assert report_to_dict(ra) == report_to_dict(rb)
    assert record_decisions(ra) == record_decisions(rb)


def test_run_algorithm_proportional_tag():
    inst = generate_instance(GeneratorSpec("nested-uniform", 4, seed=0))
    report = report_to_dict(run_algorithm(inst, "rwgm-proportional", master_seed=2, episodes=30))
    assert report["algorithm"] == "rwgm-proportional"
    assert report["mean_ratio"] >= 1.0


def test_run_algorithm_rejects_unknown_tag():
    inst = generate_instance(GeneratorSpec("star", 2, seed=0))
    with pytest.raises(ValueError):
        run_algorithm(inst, "annealing", master_seed=0, episodes=1)


def _one_line_value_error(call, match):
    with pytest.raises(ValueError, match=match) as err:
        call()
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("episodes", [2.5, 3.0, True, False, 0, -2, "4", None])
@pytest.mark.parametrize("tag", ALGORITHMS)
def test_run_algorithm_refuses_episodes_that_are_not_positive_integers(tag, episodes):
    inst = generate_instance(GeneratorSpec("star", 2, seed=0))
    _one_line_value_error(
        lambda: run_algorithm(inst, tag, master_seed=0, episodes=episodes), "episodes must be a positive integer"
    )


@pytest.mark.parametrize("master_seed", [2.7, 2.0, True, False, -1, "3", None])
@pytest.mark.parametrize("tag", ALGORITHMS)
def test_run_algorithm_refuses_seeds_that_are_not_non_negative_integers(tag, master_seed):
    inst = generate_instance(GeneratorSpec("star", 2, seed=0))
    _one_line_value_error(
        lambda: run_algorithm(inst, tag, master_seed=master_seed, episodes=2),
        "master_seed must be a non-negative integer",
    )


def test_run_pipeline_and_sweep_refuse_bad_episodes_and_seeds():
    inst = generate_instance(GeneratorSpec("star", 2, seed=0))
    for kwargs, match in (
        (dict(episodes=2.5, master_seed=0), "episodes"),
        (dict(episodes=True, master_seed=0), "episodes"),
        (dict(episodes=2, master_seed=2.7), "master_seed"),
        (dict(episodes=2, master_seed=True), "master_seed"),
        (dict(episodes=2, master_seed=-1), "master_seed"),
    ):
        _one_line_value_error(lambda: run_pipeline(inst, **kwargs), match)
        _one_line_value_error(lambda: sweep("star", [2], ["greedy", "optimal"], **kwargs), match)


@pytest.mark.parametrize("size", [2.7, 2.0, True, "3", 0])
def test_sweep_refuses_sizes_that_are_not_positive_integers(size):
    _one_line_value_error(
        lambda: sweep("line", [3, size], ["greedy"], episodes=1, master_seed=0), "^n must be a positive integer, got "
    )


def test_numpy_integer_episodes_and_seeds_run_like_ints():
    inst = generate_instance(GeneratorSpec("line", 4, seed=1))
    want = report_to_dict(run_pipeline(inst, master_seed=3, episodes=5))
    assert report_to_dict(run_pipeline(inst, master_seed=np.uint32(3), episodes=np.int64(5))) == want
    assert sweep("line", [3], ["rwgm"], np.int16(4), np.int64(2)) == sweep("line", [3], ["rwgm"], 4, 2)


def test_star_pipeline_mean_within_harmonic_envelope():
    k = 8
    inst = generate_instance(GeneratorSpec("star", k, seed=0))
    report = report_to_dict(run_pipeline(inst, master_seed=23, episodes=800))
    envelope = 2 * harmonic(k) + 1
    assert report["mean_ratio"] <= envelope + 3 * report["std_error"]


def test_sweep_rows_and_star_values():
    rows = sweep("star", [2, 4, 8, 16], ["greedy"], episodes=1, master_seed=0)
    assert [(n, round(mean, 9)) for n, _, mean, _ in rows] == [(2, 3.0), (4, 7.0), (8, 15.0), (16, 31.0)]
    csv = sweep_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "n,algorithm,mean_ratio,std_error"
    assert lines[1] == "2,greedy,3.0,0.0"


def test_sweep_is_deterministic():
    kwargs = dict(episodes=30, master_seed=9)
    a = sweep_csv(sweep("line", [2, 4], ["rwgm", "greedy"], **kwargs))
    b = sweep_csv(sweep("line", [2, 4], ["rwgm", "greedy"], **kwargs))
    assert a == b


def test_sweep_solves_each_size_once(monkeypatch):
    kwargs = dict(episodes=4, master_seed=5)
    tags = ["rwgm", "greedy", "optimal"]
    calls = []
    solve = harness.optimal_matching
    monkeypatch.setattr(harness, "optimal_matching", lambda inst: calls.append(inst) or solve(inst))
    rows = sweep("line", [3, 5], tags, **kwargs)
    assert len(calls) == 2
    # The same rows as one run_algorithm call, with its own solve, per tag.
    want = []
    for si, n in enumerate([3, 5]):
        inst = generate_instance(GeneratorSpec("line", n, seed=derive_seed(5, 0, si)))
        for ai, tag in enumerate(tags):
            report = report_to_dict(run_algorithm(inst, tag, derive_seed(5, 1, si, ai), 4))
            want.append((n, tag, report["mean_ratio"], report["std_error"]))
    assert sweep_csv(rows) == sweep_csv(want)


def test_sweep_rejects_unknown_tag_before_generating(monkeypatch):
    generated = []
    monkeypatch.setattr(harness, "generate_instance", generated.append)
    with pytest.raises(ValueError, match="bogus"):
        sweep("star", [2], ["rwgm", "bogus"], episodes=1, master_seed=0)
    assert generated == []


def test_sweep_rejects_empty_sizes():
    with pytest.raises(ValueError):
        sweep("star", [], ["greedy"], episodes=1, master_seed=0)


def test_trace_csv_format():
    inst = generate_instance(GeneratorSpec("star", 3, seed=0))
    record = run_algorithm(inst, "rwgm", master_seed=4, episodes=2)
    text = trace_csv(record)
    lines = text.strip().split("\n")
    assert lines[0] == "episode,step,request_point,server_point,cost"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "0"


def test_trace_csv_keeps_signed_zero_costs_apart():
    # Points 0 and 1 coincide at distance -0.0, which prints apart from the diagonal's 0.0.
    inst = Instance(FiniteMetric.from_matrix([[0.0, -0.0, 0.5], [-0.0, 0.0, 0.5], [0.5, 0.5, 0.0]]),
                    servers=(0, 1, 1, 2, 0), requests=(1, 1, 0, 2, 1))
    for tag in ALGORITHMS:
        record = run_algorithm(inst, tag, master_seed=3, episodes=20)
        text = trace_csv(record)
        assert text == reference_trace_csv(record)
        assert ",-0.0\n" in text and ",0.0\n" in text


def test_trace_csv_matches_row_by_row_formatting():
    # Repeated decisions across episodes, as a depot instance gives.
    dist = np.array([[0.0, 1.0, 0.1 + 0.2], [1.0, 0.0, 1.0], [0.1 + 0.2, 1.0, 0.0]])
    inst = Instance(metric=FiniteMetric.from_matrix(dist), servers=(0, 0, 1, 2), requests=(2, 1, 1, 0))
    for tag in ALGORITHMS:
        record = run_algorithm(inst, tag, master_seed=3, episodes=40)
        assert trace_csv(record) == reference_trace_csv(record)


def _perfbench_inputs():
    """perfbench/inputs.py, the benchmark's seeded instance builders."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace_instances() -> dict:
    inputs = _perfbench_inputs()
    return {
        "depots": inputs.depots(3, 4, 6, 20),
        "cloud": inputs.cloud(4, 12),
        "line": inputs.line(5, 12),
        "golden-multi": MULTI,
    }


@pytest.mark.parametrize("tag", ALGORITHMS)
@pytest.mark.parametrize("name", ["depots", "cloud", "line", "golden-multi"])
def test_trace_csv_matches_the_reference_on_benchmark_and_golden_instances(name, tag):
    inst = instance_from_dict(_trace_instances()[name])
    record = run_algorithm(inst, tag, master_seed=11, episodes=30)
    rows = 30 if tag.startswith("rwgm") else 1
    assert record.served.shape == record.costs.shape == (rows, inst.n)
    assert trace_csv(record) == reference_trace_csv(record)
    assert record.totals.tolist() == [left_to_right_total(row) for row in record.costs.tolist()]
    without_rows = run_algorithm(inst, tag, master_seed=11, episodes=30, keep_rows=False)
    assert without_rows.totals.tolist() == record.totals.tolist()
    assert report_to_dict(without_rows) == report_to_dict(record)


def test_runs_without_rows_keep_totals_only_and_write_no_trace():
    inst = generate_instance(GeneratorSpec("line", 5, seed=2))
    for tag in ALGORITHMS:
        record = run_algorithm(inst, tag, master_seed=1, episodes=4, keep_rows=False)
        assert record.served is None and record.costs is None
        assert len(record.totals) == (4 if tag.startswith("rwgm") else 1)
        with pytest.raises(ValueError, match="^the record kept no rows to write$"):
            trace_csv(record)


def _serial_run(inst, tag, master_seed, episodes) -> tuple:
    """The optimum, solved first, then the served rows of the same episodes, one after another."""
    om = optimal_matching(inst)
    if tag == "optimal":
        return om.cost, [[inst.servers[i] for i, _ in om.pairs]]
    if tag == "greedy":
        return om.cost, [run_greedy(inst)]
    setup = pipeline_setup(inst)
    seeds = [(derive_seed(master_seed, e, 0), derive_seed(master_seed, e, 1)) for e in range(episodes)]
    return om.cost, [run_episode(setup, embed, play, algorithm=tag) for embed, play in seeds]


@pytest.mark.parametrize("tag", ALGORITHMS)
@pytest.mark.parametrize("name", ["depots", "cloud", "line", "golden-multi"])
def test_a_run_equals_its_solve_then_its_episodes_and_leaves_no_thread(name, tag):
    inst = instance_from_dict(_trace_instances()[name])
    opt, served = _serial_run(inst, tag, 13, 20)
    costs = [[float(inst.metric.dist[r, s]) for r, s in zip(inst.requests, row)] for row in served]
    threads = threading.active_count()
    record = run_algorithm(inst, tag, master_seed=13, episodes=20)
    assert threading.active_count() == threads
    assert record.opt == opt
    assert record.served.tolist() == served
    assert record.costs.tolist() == costs
    assert record.totals.tolist() == [left_to_right_total(row) for row in costs]


class SolveFailed(Exception):
    pass


class EpisodeFailed(Exception):
    pass


def _fail_the_episodes_while_solving(monkeypatch, solve_fails: bool) -> list:
    """Patch every episode's embedding to raise, and the solve to end only after that, failing if
    ``solve_fails``; returns the list the solve appends its optimum to when it succeeds."""
    episode_failed, solved = threading.Event(), []
    solve = harness.optimal_matching

    def late_solve(inst):
        episode_failed.wait(timeout=0.5)  # greedy and optimal tags run no episode
        time.sleep(0.05)  # still solving while the run meets the episode's error
        if solve_fails:
            raise SolveFailed("the solve failed")
        solved.append(solve(inst))
        return solved[-1]

    def failing_embed(*args, **kwargs):
        episode_failed.set()
        raise EpisodeFailed("the episode failed")

    monkeypatch.setattr(harness, "optimal_matching", late_solve)
    monkeypatch.setattr(harness, "frt_embed", failing_embed)
    return solved


@pytest.mark.parametrize("tag", ALGORITHMS)
def test_a_failed_solve_outranks_an_episode_that_failed_first(monkeypatch, tag):
    # A solve before the episodes, as the run's record is defined, would have raised first.
    _fail_the_episodes_while_solving(monkeypatch, solve_fails=True)
    inst = generate_instance(GeneratorSpec("line", 6, seed=3))
    threads = threading.active_count()
    with pytest.raises(SolveFailed):
        run_algorithm(inst, tag, master_seed=2, episodes=5)
    assert threading.active_count() == threads


@pytest.mark.parametrize("tag", ["rwgm", "rwgm-proportional"])
def test_a_failed_episode_raises_after_the_solve_is_joined(monkeypatch, tag):
    solved = _fail_the_episodes_while_solving(monkeypatch, solve_fails=False)
    inst = generate_instance(GeneratorSpec("line", 6, seed=3))
    threads = threading.active_count()
    with pytest.raises(EpisodeFailed):
        run_algorithm(inst, tag, master_seed=2, episodes=5)
    assert len(solved) == 1  # the solve ended before the error reached the caller
    assert threading.active_count() == threads


@pytest.mark.filterwarnings("error::RuntimeWarning")  # as pyproject.toml sets it for the whole suite
def test_a_warning_turned_error_in_the_solve_reaches_the_caller_not_the_thread_hook(monkeypatch):
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    monkeypatch.setattr(harness, "optimal_matching", lambda inst: np.float64(1e308) * 10.0)
    inst = generate_instance(GeneratorSpec("line", 6, seed=3))
    for tag in ALGORITHMS:
        with pytest.raises(RuntimeWarning, match="overflow"):
            run_algorithm(inst, tag, master_seed=2, episodes=3)
    assert hooked == []


def test_a_run_checks_the_request_triangles_once_before_any_tag(monkeypatch):
    calls = []
    original = harness._request_triangle_violation
    monkeypatch.setattr(
        harness, "_request_triangle_violation", lambda inst, g: calls.append(inst.n) or original(inst, g)
    )
    inst = generate_instance(GeneratorSpec("line", 5, seed=2))
    for tag in ALGORITHMS:
        run_algorithm(inst, tag, master_seed=1, episodes=3)
    run_pipeline(inst, master_seed=1, episodes=3)
    assert calls == [5] * 5
    calls.clear()
    sweep("line", [3, 4], list(ALGORITHMS), episodes=2, master_seed=0)
    assert calls == [3, 4]  # once per size, shared by every tag
    calls.clear()
    pipeline_setup(inst)  # on its own, as the embed command uses it, the set-up checks
    assert calls == [5]


def test_run_episode_check_still_catches_broken_decisions(monkeypatch):
    # c is 0.1 from its image b, b is 1 from server a, yet c is 100 from a. The run refuses it
    # up front; a set-up handed its images unchecked lets the episode's own check see it.
    bad = Instance(FiniteMetric.from_matrix([[0, 1, 100], [1, 0, 0.1], [100, 0.1, 0]]), (0, 1), (2, 2))
    with pytest.raises(ValueError, match="^invalid metric: dist\\[2\\]\\[0\\] = 100.0 > "):
        run_algorithm(bad, "rwgm", master_seed=0, episodes=1)
    setup = pipeline_setup(bad, harness.discretize_all(bad))
    with pytest.raises(AssertionError, match="^request 1: wrapper cost exceeds inner cost plus detour$"):
        run_episode(setup, 1, 2, check=True)  # b serves the first request, a the second

    inst = generate_instance(GeneratorSpec("line", 5, seed=2))
    setup = pipeline_setup(inst)
    serve = harness.rwgm_serve
    monkeypatch.setattr(harness, "rwgm_serve", lambda state, leaf: (serve(state, leaf)[0], -1.0))
    with pytest.raises(AssertionError, match="^request 0: tree cost fails to dominate the metric cost$"):
        run_episode(setup, 1, 2, check=True)
