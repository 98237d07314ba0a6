"""End-to-end pipeline, Monte Carlo reports, and the sweep table.

A pipeline episode embeds the server submetric into one random tree, then
serves every request through discretization onto the tree matcher. The
embedding is resampled per episode: the randomized strategy draws both the
tree and the descent choices, so the reported mean averages over both.

Randomness contract: every episode owns two integer seeds derived from
(master_seed, episode_index, slot) through numpy's SeedSequence, one for
the embedding and one for play. Streams are PCG64; identical seeds replay
identical traces on any platform.
"""
from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSpec, generate_instance
from .hst import EmbeddingParams, attach_servers, frt_embed, lambda_for_n
from .metric import Instance, submetric_of_servers
from .online import MatchingTrace, discretize_all, rwgm_init, rwgm_serve, run_greedy
from .oracle import optimal_matching

__all__ = [
    "ALGORITHMS",
    "RatioReport",
    "PipelineSetup",
    "EpisodeResult",
    "derive_seed",
    "pipeline_setup",
    "run_episode",
    "run_pipeline",
    "run_algorithm",
    "sweep",
    "sweep_csv",
    "trace_csv",
    "report_to_dict",
]

ALGORITHMS = ("rwgm", "rwgm-proportional", "greedy", "optimal")
# Descent policy of each randomized tag; the other tags are deterministic.
_TREE_POLICY = {"rwgm": "uniform", "rwgm-proportional": "proportional"}

TRACE_HEADER = "episode,step,request_point,server_point,cost"
SWEEP_HEADER = "n,algorithm,mean_ratio,std_error"


def _check_algorithms(tags) -> None:
    for tag in tags:
        if tag not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {tag!r}, expected one of {ALGORITHMS}")


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable 64-bit child seed for a (master, key...) slot."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class RatioReport:
    """Aggregate episode statistics against the offline optimum.

    ``kind`` is "ratio" when the optimum is positive; instances whose
    optimum is zero are reported with the same statistics over absolute
    costs instead, since the ratio is undefined there.
    """

    algorithm: str
    episodes: int
    opt: float
    kind: str
    mean: float
    std_error: float
    min: float
    max: float
    quantiles: dict
    master_seed: int


def _make_report(algorithm, costs, opt, master_seed) -> RatioReport:
    values = np.asarray(costs, dtype=float)
    kind = "ratio"
    if opt > 0.0:
        values = values / opt
    else:
        kind = "absolute-cost"
    std_error = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    qs = np.quantile(values, [0.1, 0.5, 0.9])
    return RatioReport(
        algorithm=algorithm,
        episodes=len(values),
        opt=float(opt),
        kind=kind,
        mean=float(values.mean()),
        std_error=std_error,
        min=float(values.min()),
        max=float(values.max()),
        quantiles={"p10": float(qs[0]), "p50": float(qs[1]), "p90": float(qs[2])},
        master_seed=int(master_seed),
    )


@dataclass(frozen=True)
class PipelineSetup:
    """Episode-independent preprocessing shared by all episodes of a run."""

    inst: Instance
    sub: object
    mapping: dict
    g: tuple  # nearest-server image of each request, in request order
    g_sub: tuple  # submetric index of each request's image
    stock: tuple  # (submetric point, its server instances) pairs, highest point first
    requests: np.ndarray  # the request points, for one cost gather per episode
    lam: float
    opt: float


def pipeline_setup(inst: Instance) -> PipelineSetup:
    sub, mapping = submetric_of_servers(inst)
    g = discretize_all(inst)
    servers = Counter(inst.servers)
    return PipelineSetup(
        inst=inst,
        sub=sub,
        mapping=mapping,
        g=g,
        g_sub=tuple(mapping[p] for p in g),
        stock=tuple((mapping[p], [p] * servers[p]) for p in sorted(servers, reverse=True)),
        requests=np.asarray(inst.requests),
        lam=lambda_for_n(inst.n),
        opt=optimal_matching(inst).cost,
    )


@dataclass(frozen=True)
class EpisodeResult:
    trace: MatchingTrace
    moves: int  # requests served away from their own leaf


def run_episode(
    setup: PipelineSetup,
    embed_seed: int,
    play_seed: int,
    *,
    algorithm: str = "rwgm",
    check: bool = False,
) -> EpisodeResult:
    """Play one full episode of a randomized tag: embed, attach servers, serve every request.

    With ``check`` set, every decision is verified against the per-request
    guarantees: the recorded cost never exceeds the inner cost plus the
    discretization distance, and the inner (submetric) cost never exceeds
    the tree cost the matcher paid.
    """
    inst = setup.inst
    dist = inst.metric.dist
    tree = frt_embed(setup.sub, EmbeddingParams(lam=setup.lam, seed=embed_seed, n=inst.n))
    tree = attach_servers(tree, inst, setup.mapping)
    state = rwgm_init(tree, play_seed, policy=_TREE_POLICY[algorithm])
    point_leaf = tree.point_leaf

    # The server instances waiting at each leaf, highest point index first,
    # so pop() consumes the lowest index. Points of one zero-distance class
    # share a leaf and arrive highest first, so appending keeps the order.
    stock: dict = {}
    for q, servers in setup.stock:
        stock.setdefault(point_leaf[q], []).extend(servers)

    served = []
    tree_costs = []
    moves = 0
    for q in setup.g_sub:
        g_leaf = point_leaf[q]
        server_leaf, tree_cost = rwgm_serve(state, g_leaf)
        served.append(stock[server_leaf].pop())
        if server_leaf != g_leaf:
            moves += 1
        if check:
            tree_costs.append(tree_cost)
    costs = dist[setup.requests, served].tolist()

    if check:
        tol = 1e-9 * float(dist.max())
        for i, (r, g, s, cost, tree_cost) in enumerate(zip(inst.requests, setup.g, served, costs, tree_costs)):
            inner_cost = float(dist[g, s])
            if cost > inner_cost + float(dist[g, r]) + tol:
                raise AssertionError(f"request {i}: wrapper cost exceeds inner cost plus detour")
            if inner_cost > tree_cost * (1.0 + 1e-12) + tol:
                raise AssertionError(f"request {i}: tree cost fails to dominate the metric cost")

    total = 0.0  # summed left to right, as MatchingTrace.append does
    for cost in costs:
        total += cost
    trace = MatchingTrace(
        algorithm=algorithm,
        seed=int(play_seed),
        decisions=list(zip(inst.requests, served, costs)),
        total_cost=total,
    )
    return EpisodeResult(trace=trace, moves=moves)


def run_pipeline(inst: Instance, master_seed: int, episodes: int, *, check: bool = False) -> RatioReport:
    """Monte Carlo estimate of the rwgm pipeline's cost ratio over seeded episodes."""
    report, _ = run_algorithm(inst, "rwgm", master_seed, episodes, check=check)
    return report


def run_algorithm(
    inst: Instance,
    tag: str,
    master_seed: int,
    episodes: int,
    *,
    check: bool = False,
):
    """Run one algorithm tag; returns (report, traces).

    Deterministic tags collapse to a single episode regardless of the
    requested count.
    """
    _check_algorithms([tag])
    if episodes < 1:
        raise ValueError("episodes must be a positive integer")

    if tag == "greedy":
        trace = run_greedy(inst)
        opt = optimal_matching(inst).cost
        return _make_report("greedy", [trace.total_cost], opt, master_seed), [trace]

    if tag == "optimal":
        om = optimal_matching(inst)
        trace = MatchingTrace(algorithm="optimal", seed=None)
        for srv_idx, req_idx in om.pairs:
            r = inst.requests[req_idx]
            s = inst.servers[srv_idx]
            trace.append(r, s, float(inst.metric.dist[r, s]))
        return _make_report("optimal", [trace.total_cost], om.cost, master_seed), [trace]

    setup = pipeline_setup(inst)
    costs = []
    traces = []
    for e in range(episodes):
        result = run_episode(
            setup,
            derive_seed(master_seed, e, 0),
            derive_seed(master_seed, e, 1),
            algorithm=tag,
            check=check,
        )
        costs.append(result.trace.total_cost)
        traces.append(result.trace)
    return _make_report(tag, costs, setup.opt, master_seed), traces


def sweep(
    family: str,
    sizes,
    algorithms,
    episodes: int,
    master_seed: int,
    *,
    dim: int = 2,
    coord_range: float = 100.0,
):
    """One row of statistics per (size, algorithm); deterministic in the seed."""
    sizes, algorithms = list(sizes), list(algorithms)
    _check_algorithms(algorithms)
    if not sizes:
        raise ValueError("sizes must be nonempty")
    rows = []
    for si, n in enumerate(sizes):
        spec = GeneratorSpec(
            family=family,
            n=int(n),
            seed=derive_seed(master_seed, 0, si),
            dim=dim,
            coord_range=coord_range,
        )
        inst = generate_instance(spec)
        for ai, tag in enumerate(algorithms):
            report, _ = run_algorithm(inst, tag, derive_seed(master_seed, 1, si, ai), episodes)
            if report.kind != "ratio":
                raise ValueError(f"instance (family={family}, n={n}) has zero optimum")
            rows.append((int(n), tag, report.mean, report.std_error))
    return rows


def sweep_csv(rows) -> str:
    out = io.StringIO()
    out.write(SWEEP_HEADER + "\n")
    for n, tag, mean, se in rows:
        out.write(f"{n},{tag},{mean!r},{se!r}\n")
    return out.getvalue()


def trace_csv(traces) -> str:
    """One row per decision across episodes, fixed header, episode-major order."""
    out = io.StringIO()
    out.write(TRACE_HEADER + "\n")
    for episode, trace in enumerate(traces):
        for step, (r, s, cost) in enumerate(trace.decisions):
            out.write(f"{episode},{step},{r},{s},{cost!r}\n")
    return out.getvalue()


def report_to_dict(report: RatioReport) -> dict:
    return {
        "algorithm": report.algorithm,
        "episodes": report.episodes,
        "opt": report.opt,
        "kind": report.kind,
        "mean_ratio" if report.kind == "ratio" else "mean_cost": report.mean,
        "std_error": report.std_error,
        "min": report.min,
        "max": report.max,
        "quantiles": report.quantiles,
        "master_seed": report.master_seed,
    }
