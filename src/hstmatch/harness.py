"""End-to-end pipeline, Monte Carlo reports, and the sweep table.

A pipeline episode embeds the server submetric into one random tree, places
the servers on its leaves and serves each request's discretized image (found
once per run by ``pipeline_setup``) on the tree matcher. The embedding is
resampled per episode: the randomized strategy draws both the tree and the
descent choices, so the reported mean averages over both.

Randomness contract: episode e owns two integer seeds, slot 0 for the
embedding and slot 1 for play, each the 64-bit state word that
``SeedSequence(entropy=master_seed, spawn_key=(e, slot))`` generates. A run
computes them with SeedSequence's algorithm in one numpy pass per block of
episodes, and the tests check them against numpy's own. Streams are PCG64;
identical seeds replay identical traces on any platform.
"""
from __future__ import annotations

import io
from dataclasses import asdict, dataclass

import numpy as np

from .generators import GeneratorSpec, generate_instance
from .hst import EmbeddingParams, ServerCounts, attach_servers, count_servers, frt_embed, lambda_for_n
from .metric import Instance, _is_int, _request_triangle_violation, submetric_of_servers
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


# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SEED_BLOCK = 1024  # episodes whose seeds are derived in one numpy pass


def _hashmix(value: np.ndarray, init: int, mult: int, first: int, n: int) -> np.ndarray:
    """SeedSequence's hashes number first .. first + n - 1, the i-th on entry i of the last axis."""
    c = np.array([init * pow(mult, first + i, 2**32) % 2**32 for i in range(n + 1)], dtype=np.uint32)
    value = (value ^ c[:-1]) * c[1:]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


def _episode_seeds(master_seed: int, start: int, stop: int):
    """Yield ``(derive_seed(master_seed, e, 0), derive_seed(master_seed, e, 1))`` for e in [start, stop).

    A child's entropy is the master's words, zero-padded to the four-word pool
    (zeros hash as the pool's own fill does), then the spawn words e and slot.
    So the pool is ``SeedSequence(master_seed).pool``, computed once, until each
    block of ``_SEED_BLOCK`` episodes mixes in its spawn words. Needs
    ``stop <= 2**32``: a larger episode index is two spawn words.
    """
    pool = np.random.SeedSequence(int(master_seed)).pool
    # The master took 4 hashes to fill the pool, 12 to mix it, and 4 per word past the pool.
    done = 16 + 4 * max(0, -(-int(master_seed).bit_length() // 32) - 4)
    slots = _hashmix(np.array([0, 1], dtype=np.uint32).reshape(2, 1, 1), _INIT_A, _MULT_A, done + 4, 4)
    for lo in range(start, stop, _SEED_BLOCK):
        e = np.arange(lo, min(lo + _SEED_BLOCK, stop), dtype=np.uint32)[:, None]
        mixed = _mix(_mix(pool, _hashmix(e, _INIT_A, _MULT_A, done, 4)), slots)  # [slot, episode, word]
        words = _hashmix(mixed[..., :2], _INIT_B, _MULT_B, 0, 2).astype(np.uint64)  # generate_state
        yield from zip(*(words[..., 0] | words[..., 1] << np.uint64(32)).tolist())


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
    g: tuple  # nearest-server image of each request, in request order
    g_sub: tuple  # submetric index of each request's image
    servers: ServerCounts  # the server submetric's classes and per-class server counts, for frt_embed
    stock: dict  # each class representative's server instances, highest first, for attach_servers
    requests: np.ndarray  # the request points, for one cost gather per episode
    lam: float


def pipeline_setup(inst: Instance) -> PipelineSetup:
    sub, mapping = submetric_of_servers(inst)
    g = discretize_all(inst)
    violation = _request_triangle_violation(inst, g)
    if violation is not None:
        raise ValueError(f"invalid metric: {violation}")
    counts = count_servers(sub, [mapping[p] for p in inst.servers])
    rep_of = counts.rep_of.tolist()
    stock: dict = {}
    for p in sorted(inst.servers, reverse=True):
        stock.setdefault(counts.reps[rep_of[mapping[p]]], []).append(p)
    return PipelineSetup(
        inst=inst,
        g=g,
        g_sub=tuple(mapping[p] for p in g),
        servers=counts,
        stock=stock,
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
    tree = frt_embed(setup.servers, EmbeddingParams(lam=setup.lam, seed=embed_seed))
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


def run_algorithm(inst: Instance, tag: str, master_seed: int, episodes: int, *, check: bool = False):
    """Run one algorithm tag; returns (report, traces).

    Deterministic tags collapse to a single episode regardless of the
    requested count.
    """
    _check_algorithms([tag])
    _check_counts(episodes, master_seed)
    return _run_tag(inst, tag, master_seed, episodes, optimal_matching(inst), check)


def _check_counts(episodes, master_seed) -> None:
    """Refuse what ``range`` and the seed derivation would coerce or choke on."""
    if not (_is_int(episodes) and 1 <= episodes <= 2**32):  # one 32-bit spawn word per episode index
        raise ValueError(f"episodes must be a positive integer at most 2**32, got {episodes!r}")
    if not (_is_int(master_seed) and master_seed >= 0):
        raise ValueError(f"master_seed must be a non-negative integer, got {master_seed!r}")


def _run_tag(inst: Instance, tag: str, master_seed: int, episodes: int, om, check: bool = False):
    """run_algorithm's body, against an optimum ``om`` of inst solved by the caller."""
    if tag == "greedy":
        trace = run_greedy(inst)
        return _make_report("greedy", [trace.total_cost], om.cost, master_seed), [trace]

    if tag == "optimal":
        pairs = [(inst.requests[req_idx], inst.servers[srv_idx]) for srv_idx, req_idx in om.pairs]
        trace = MatchingTrace([(r, s, float(inst.metric.dist[r, s])) for r, s in pairs])
        return _make_report("optimal", [trace.total_cost], om.cost, master_seed), [trace]

    setup = pipeline_setup(inst)
    seeds = _episode_seeds(master_seed, 0, episodes)
    traces = [run_episode(setup, embed, play, algorithm=tag, check=check) for embed, play in seeds]
    return _make_report(tag, [trace.total_cost for trace in traces], om.cost, master_seed), traces


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
