import json

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import check
import inputs
import run


@pytest.fixture
def instance():
    return inputs.cloud(seed=5, n=6)


def matching_rows(instance):
    """The optimal assignment as (request, server) pairs in request order."""
    dist = np.asarray(instance["dist"])
    servers, requests = instance["servers"], instance["requests"]
    rows, cols = linear_sum_assignment(dist[np.ix_(servers, requests)])
    server_of = {int(c): servers[int(r)] for r, c in zip(rows, cols)}
    return [(r, server_of[i]) for i, r in enumerate(requests)]


def trace_text(instance, episodes, edit=None):
    dist = np.asarray(instance["dist"])
    lines = [check.TRACE_HEADER]
    for e in range(episodes):
        for step, (r, s) in enumerate(matching_rows(instance)):
            cost = float(dist[r, s])
            if edit is not None:
                r, s, cost = edit(e, step, r, s, cost)
            lines.append(f"{e},{step},{r},{s},{cost!r}")
    return "\n".join(lines) + "\n"


def test_a_correct_trace_and_report_pass(instance):
    opt = check.optimum(instance)
    problems, bad, totals = check.check_trace(trace_text(instance, 3), instance, 3, opt)
    assert (problems, bad) == ([], 0)
    assert totals == pytest.approx([opt] * 3)
    report = {
        "algorithm": "rwgm", "episodes": 3, "opt": opt, "kind": "ratio", "mean_ratio": 1.0,
        "std_error": 0.0, "min": 1.0, "max": 1.0,
        "quantiles": {"p10": 1.0, "p50": 1.0, "p90": 1.0}, "master_seed": 9,
    }
    assert check.check_report(report, totals, opt, "rwgm", 3, 9) == []
    report["mean_ratio"] = 1.01
    assert check.check_report(report, totals, opt, "rwgm", 3, 9)


def test_swapped_server_is_rejected(instance):
    other = next(p for p in range(len(instance["points"])) if p not in instance["servers"])
    dist = np.asarray(instance["dist"])

    def swap(e, step, r, s, cost):
        return (r, other, float(dist[r, other])) if (e, step) == (1, 2) else (r, s, cost)

    problems, bad, _ = check.check_trace(trace_text(instance, 3, swap), instance, 3, check.optimum(instance))
    assert bad == 1 and "episode 1" in problems[0]


def test_altered_cost_is_rejected(instance):
    def bump(e, step, r, s, cost):
        return (r, s, cost + 1e-6) if (e, step) == (0, 0) else (r, s, cost)

    problems, bad, _ = check.check_trace(trace_text(instance, 2, bump), instance, 2, check.optimum(instance))
    assert bad == 1 and "episode 0" in problems[0]


def test_duplicated_server_is_rejected(instance):
    first_server = matching_rows(instance)[0][1]
    dist = np.asarray(instance["dist"])

    def dup(e, step, r, s, cost):
        return (r, first_server, float(dist[r, first_server])) if (e, step) == (2, 1) else (r, s, cost)

    problems, bad, _ = check.check_trace(trace_text(instance, 3, dup), instance, 3, check.optimum(instance))
    assert bad == 1 and "episode 2" in problems[0]


def test_truncated_trace_fails_every_episode(instance):
    text = trace_text(instance, 2)
    problems, bad, _ = check.check_trace(text[: text.rindex("\n", 0, -1) + 1], instance, 2, 1.0)
    assert bad == 2 and problems


def test_one_flipped_byte_breaks_the_replay_digest(instance):
    verifier = run.Verifier(instance, seed=4)
    cmd = run.Command(("run",), ("trace0.csv", "report0.json"), "rwgm", 2)
    opt = check.optimum(instance)
    totals = np.array([opt, opt])
    report = {
        "algorithm": "rwgm", "episodes": 2, "opt": opt, "kind": "ratio", "mean_ratio": 1.0,
        "std_error": 0.0, "min": 1.0, "max": 1.0,
        "quantiles": {"p10": 1.0, "p50": 1.0, "p90": 1.0}, "master_seed": 4,
    }
    assert check.check_report(report, totals, opt, "rwgm", 2, 4) == []
    files = {"trace0.csv": trace_text(instance, 2).encode(), "report0.json": json.dumps(report).encode()}
    child = run.Child(1.0, 1, 0, json.dumps(report) + "\n", "")
    verifier.command("full[0]", cmd, child, files)
    assert (verifier.failed, verifier.problems) == (0, [])

    flipped = bytearray(files["trace0.csv"])
    flipped[-3] ^= 0x01
    assert check.digest({**files, "trace0.csv": bytes(flipped)}) != check.digest(files)
    verifier.command("full[0]", cmd, child, {**files, "trace0.csv": bytes(flipped)})
    assert verifier.failed >= 1
    assert any("differ from an earlier run" in p for p in verifier.problems)


def test_sweep_optimal_rows_must_read_one():
    good = check.SWEEP_HEADER + "\n4,rwgm,1.5,0.1\n4,optimal,1.0,0.0\n"
    assert check.check_sweep(good, [4], ["rwgm", "optimal"]) == ([], 0)
    bad = check.SWEEP_HEADER + "\n4,rwgm,1.5,0.1\n4,optimal,1.01,0.0\n"
    problems, rows = check.check_sweep(bad, [4], ["rwgm", "optimal"])
    assert rows == 1 and "optimal" in problems[0]
    missing = check.SWEEP_HEADER + "\n4,rwgm,1.5,0.1\n"
    assert check.check_sweep(missing, [4], ["rwgm", "optimal"])[1] == 2


def test_outputs_that_differ_from_a_pinned_digest_fail_the_run(monkeypatch, tmp_path):
    assert set(run.pinned_digests("euclid-embed", 0)) == {"full", "setup"}  # both sequences are pinned

    wl = run.workloads(smoke=True)["euclid-embed"]
    inputs.write(wl.instance(4), tmp_path / "instance.json")
    env = run.child_env(1)
    table = tmp_path / "digests.json"
    monkeypatch.setattr(run, "DIGESTS", table)

    def measure(pinned):
        table.write_text(json.dumps({"euclid-embed": {"4": pinned}}))
        verifier = run.Verifier(wl.instance(4), seed=4)
        _, _, digests = run.measure("euclid-embed", wl, 4, 0.1, tmp_path, env, verifier, smoke=False)
        return verifier, digests

    verifier, digests = measure({})
    assert (verifier.failed, verifier.problems) == (0, [])
    assert measure(digests)[0].failed == 0
    verifier, _ = measure({**digests, "setup": "0" * 64})
    assert verifier.failed == 1
    assert verifier.problems == ["setup outputs do not match the digest pinned for seed 4"]
