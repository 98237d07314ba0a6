"""End-to-end pipeline, Monte Carlo reports, and the sweep table.

A pipeline episode embeds the server submetric into one random tree, places
the servers on its leaves and serves each request's discretized image (found
once per run by ``pipeline_setup``) on the tree matcher. The embedding is
resampled per episode: the randomized strategy draws both the tree and the
descent choices, so the reported mean averages over both.

Randomness contract: every episode owns two integer seeds derived from
(master_seed, episode_index, slot) through numpy's SeedSequence, one for
the embedding and one for play. Streams are PCG64; identical seeds replay
identical traces on any platform.
"""
from __future__ import annotations

import io
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .generators import GeneratorSpec, generate_instance
from .hst import EmbeddingParams, attach_servers, frt_embed, lambda_for_n
from .metric import Instance, _is_int, submetric_of_servers
from .online import MatchingTrace, discretize_all, rwgm_init, rwgm_serve, run_greedy
from .oracle import optimal_matching

__all__ = [
    "ALGORITHMS",
    "RatioReport",
    "PipelineSetup",
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
    g: tuple  # nearest-server image of each request, in request order
    g_sub: tuple  # submetric index of each request's image
    servers: np.ndarray  # submetric index of each server instance, for frt_embed
    stock: tuple  # (submetric point, its server instances) pairs, highest point first, for attach_servers
    requests: np.ndarray  # the request points, for one cost gather per episode
    lam: float


def pipeline_setup(inst: Instance) -> PipelineSetup:
    sub, mapping = submetric_of_servers(inst)
    g = discretize_all(inst)
    counts = Counter(inst.servers)
    return PipelineSetup(
        inst=inst,
        sub=sub,
        g=g,
        g_sub=tuple(mapping[p] for p in g),
        servers=np.array([mapping[p] for p in inst.servers], dtype=np.intp),
        stock=tuple((mapping[p], (p,) * counts[p]) for p in sorted(counts, reverse=True)),
        requests=np.asarray(inst.requests),
        lam=lambda_for_n(inst.n),
    )


def run_episode(
    setup: PipelineSetup,
    embed_seed: int,
    play_seed: int,
    *,
    algorithm: str = "rwgm",
    check: bool = False,
) -> MatchingTrace:
    """Play one full episode of a randomized tag: embed, attach servers, serve every request.

    With ``check`` set, every decision is verified against the per-request
    guarantees: the recorded cost never exceeds the inner cost plus the
    discretization distance, and the inner (submetric) cost never exceeds
    the tree cost the matcher paid.
    """
    inst = setup.inst
    dist = inst.metric.dist
    tree = frt_embed(setup.sub, EmbeddingParams(lam=setup.lam, seed=embed_seed), setup.servers)
    stock = attach_servers(tree, setup.stock)
    state = rwgm_init(tree, play_seed, policy=_TREE_POLICY[algorithm])
    point_leaf = tree.point_leaf

    served = []
    tree_costs = []
    for q in setup.g_sub:
        server_leaf, tree_cost = rwgm_serve(state, point_leaf[q])
        served.append(stock[server_leaf].pop())
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

    return MatchingTrace(list(zip(inst.requests, served, costs)))


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
    _check_counts(episodes, master_seed)
    return _run_tag(inst, tag, master_seed, episodes, optimal_matching(inst), check)


def _check_counts(episodes, master_seed) -> None:
    """Refuse what ``range`` and the seed derivation would coerce or choke on."""
    if not (_is_int(episodes) and episodes >= 1):
        raise ValueError(f"episodes must be a positive integer, got {episodes!r}")
    if not (_is_int(master_seed) and master_seed >= 0):
        raise ValueError(f"master_seed must be a non-negative integer, got {master_seed!r}")


def _run_tag(inst: Instance, tag: str, master_seed: int, episodes: int, om, check: bool = False):
    """run_algorithm's body, against an optimum ``om`` of inst solved by the caller."""
    if tag == "greedy":
        trace = run_greedy(inst)
        return _make_report("greedy", [trace.total_cost], om.cost, master_seed), [trace]

    if tag == "optimal":
        decisions = []
        for srv_idx, req_idx in om.pairs:
            r = inst.requests[req_idx]
            s = inst.servers[srv_idx]
            decisions.append((r, s, float(inst.metric.dist[r, s])))
        trace = MatchingTrace(decisions)
        return _make_report("optimal", [trace.total_cost], om.cost, master_seed), [trace]

    setup = pipeline_setup(inst)
    costs = []
    traces = []
    for e in range(episodes):
        trace = run_episode(
            setup,
            derive_seed(master_seed, e, 0),
            derive_seed(master_seed, e, 1),
            algorithm=tag,
            check=check,
        )
        costs.append(trace.total_cost)
        traces.append(trace)
    return _make_report(tag, costs, om.cost, master_seed), traces


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
    if not algorithms:
        raise ValueError("algorithms must be nonempty")
    _check_counts(episodes, master_seed)
    specs = [  # every size is checked before any instance is built
        GeneratorSpec(
            family=family,
            n=n,
            seed=derive_seed(master_seed, 0, si),
            dim=dim,
            coord_range=coord_range,
        )
        for si, n in enumerate(sizes)
    ]
    rows = []
    for si, spec in enumerate(specs):
        inst = generate_instance(spec)
        om = optimal_matching(inst)  # one solve serves every tag
        for ai, tag in enumerate(algorithms):
            report, _ = _run_tag(inst, tag, derive_seed(master_seed, 1, si, ai), episodes, om)
            if report.kind != "ratio":
                raise ValueError(f"instance (family={family}, n={spec.n}) has zero optimum")
            rows.append((spec.n, tag, report.mean, report.std_error))
    return rows


def sweep_csv(rows) -> str:
    out = io.StringIO()
    out.write(SWEEP_HEADER + "\n")
    for n, tag, mean, se in rows:
        out.write(f"{n},{tag},{mean!r},{se!r}\n")
    return out.getvalue()


def trace_csv(traces) -> str:
    """One row per decision across episodes, fixed header, episode-major order.

    Episodes repeat decisions, so each call formats the text of every
    distinct (request, server, cost), and of every step number, once.
    """
    parts = [TRACE_HEADER + "\n"]
    steps: list = []  # "step," texts
    tails: dict = {}  # (request, server, cost) -> "request,server,cost\n"
    for episode, trace in enumerate(traces):
        decisions = trace.decisions
        steps.extend(f"{step}," for step in range(len(steps), len(decisions)))
        prefix = f"{episode},"
        for step, (r, s, cost) in zip(steps, decisions):
            key = (r, s, cost or repr(cost))  # 0.0 and -0.0 are equal but print differently
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = f"{r},{s},{cost!r}\n"
            parts.append(prefix + step + tail)
    return "".join(parts)


def report_to_dict(report: RatioReport) -> dict:
    """The report's fields in declaration order, ``mean`` renamed after the report's kind."""
    mean = "mean_ratio" if report.kind == "ratio" else "mean_cost"
    return {mean if k == "mean" else k: v for k, v in asdict(report).items()}
