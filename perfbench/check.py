"""Output checks made from outside the program.

Nothing here imports hstmatch: the optimum comes from scipy directly, and
traces, reports and sweep tables are parsed from the files the CLI wrote.
Each check returns a list of problems (empty when the output is correct) and
the number of episodes or rows that failed, so the benchmark can count
failures per operation.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

TRACE_HEADER = "episode,step,request_point,server_point,cost"
SWEEP_HEADER = "n,algorithm,mean_ratio,std_error"
REL = 1e-9  # relative tolerance for recomputed floating-point statistics


def optimum(inst: dict) -> float:
    """Offline minimum-cost perfect matching of servers to requests."""
    dist = np.asarray(inst["dist"], dtype=float)
    cost = dist[np.ix_(inst["servers"], inst["requests"])]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def digest(files) -> str:
    """sha256 over (name, bytes) pairs in name order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode("utf-8") + b"\0")
        h.update(files[name])
        h.update(b"\0")
    return h.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=REL * 1e-3)


def check_trace(text: str, inst: dict, episodes: int, opt: float):
    """Check a trace CSV; return (problems, bad_episodes, episode_totals).

    Every episode must be a perfect matching of the server multiset to the
    request sequence in order, every cost must equal dist[r][s] exactly, and
    no episode may cost less than the optimum.
    """
    lines = text.split("\n")
    n = len(inst["requests"])
    if lines[0] != TRACE_HEADER or lines[-1] != "":
        return ["trace: bad header or missing final newline"], episodes, None
    rows = lines[1:-1]
    if len(rows) != episodes * n:
        return [f"trace: {len(rows)} rows, expected {episodes} x {n}"], episodes, None
    try:
        cols = list(zip(*(row.split(",") for row in rows)))
        if len(cols) != 5:
            raise ValueError("expected 5 columns")
        ep, step, req, srv = (np.array(c, dtype=np.int64).reshape(episodes, n) for c in cols[:4])
        cost = np.array([float(x) for x in cols[4]]).reshape(episodes, n)
    except ValueError as exc:
        return [f"trace: unparsable rows ({exc})"], episodes, None

    dist = np.asarray(inst["dist"], dtype=float)
    bad = np.zeros(episodes, dtype=bool)
    bad |= (ep != np.arange(episodes)[:, None]).any(axis=1)
    bad |= (step != np.arange(n)[None, :]).any(axis=1)
    bad |= (req != np.asarray(inst["requests"])[None, :]).any(axis=1)
    bad |= (np.sort(srv, axis=1) != np.sort(inst["servers"])[None, :]).any(axis=1)
    in_range = (srv >= 0) & (srv < dist.shape[0]) & (req >= 0) & (req < dist.shape[0])
    bad |= ~in_range.all(axis=1)
    expected = dist[np.where(in_range, req, 0), np.where(in_range, srv, 0)]
    bad |= (cost != expected).any(axis=1)
    totals = np.cumsum(cost, axis=1)[:, -1]  # sequential, as the program sums
    bad |= totals < opt * (1.0 - REL)
    problems = [f"trace: episode {int(e)} is not a correct matching" for e in np.flatnonzero(bad)[:5]]
    return problems, int(bad.sum()), totals


def check_report(report: dict, totals, opt: float, algorithm: str, episodes: int, seed: int):
    """The report must recompute from the trace's episode totals."""
    problems = []
    expect = {"algorithm": algorithm, "episodes": episodes, "master_seed": seed, "kind": "ratio"}
    for key, value in expect.items():
        if report.get(key) != value:
            problems.append(f"report: {key} = {report.get(key)!r}, expected {value!r}")
    if not _close(float(report.get("opt", math.nan)), opt):
        problems.append(f"report: opt {report.get('opt')} differs from the optimum {opt}")
    if problems or totals is None:
        return problems
    values = totals / report["opt"]
    qs = np.quantile(values, [0.1, 0.5, 0.9])
    se = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    recomputed = {
        "mean_ratio": float(values.mean()),
        "min": float(values.min()),
        "max": float(values.max()),
        "std_error": se,
    }
    for key, value in recomputed.items():
        if not _close(float(report.get(key, math.nan)), value):
            problems.append(f"report: {key} = {report.get(key)} but the trace gives {value}")
    for key, value in zip(("p10", "p50", "p90"), qs):
        if not _close(float(report.get("quantiles", {}).get(key, math.nan)), float(value)):
            problems.append(f"report: quantile {key} does not recompute from the trace")
    return problems


def check_sweep(text: str, sizes, algorithms):
    """Return (problems, bad_rows). Rows come size-major; optimal rows read 1."""
    lines = text.split("\n")
    expected = [(n, a) for n in sizes for a in algorithms]
    if lines[0] != SWEEP_HEADER or lines[-1] != "":
        return ["sweep: bad header or missing final newline"], len(expected)
    rows = [row.split(",") for row in lines[1:-1]]
    if [(r[0], r[1]) for r in rows if len(r) == 4] != [(str(n), a) for n, a in expected]:
        return ["sweep: rows do not list every (size, algorithm) pair in order"], len(expected)
    problems = []
    for (n, tag), row in zip(expected, rows):
        mean, se = float(row[2]), float(row[3])
        ok = mean >= 1.0 - REL and se >= 0.0
        if tag == "optimal":
            ok = ok and abs(mean - 1.0) <= REL and se == 0.0
        if not ok:
            problems.append(f"sweep: row ({n}, {tag}) reads mean {mean}, std error {se}")
    return problems, len(problems)


def check_throughput(reports, opt: float, episodes: int, seed: int):
    """Every timed run_pipeline call returns the same valid report."""
    problems = []
    first = reports[0] if reports else {}
    if any(r != first for r in reports):
        problems.append("throughput: repeated run_pipeline calls disagree")
    if first.get("episodes") != episodes or first.get("master_seed") != seed:
        problems.append("throughput: report does not match the requested run")
    if not _close(float(first.get("opt", math.nan)), opt):
        problems.append(f"throughput: opt {first.get('opt')} differs from the optimum {opt}")
    if not float(first.get("min", math.nan)) >= 1.0 - REL:
        problems.append("throughput: an episode costs less than the optimum")
    return problems


def parse_report(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None
