"""End-to-end pipeline, Monte Carlo reports, and the sweep table.

A pipeline episode embeds the server submetric into one random tree, places
the servers on its leaves and serves each request's discretized image (found
and checked once per run, before any episode) on the tree matcher. The embedding is
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

import math
import threading
from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSpec, generate_instance
from .hst import EmbeddingParams, ServerCounts, attach_servers, count_servers, frt_embed, lambda_for_n
from .metric import Instance, _is_int, _request_triangle_violation, submetric_of_servers
from .online import discretize_all, rwgm_init, rwgm_serve, run_greedy
from .oracle import _linear_sum_assignment, optimal_matching

__all__ = [
    "ALGORITHMS",
    "RunRecord",
    "PipelineSetup",
    "derive_seed",
    "episode_totals",
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
    """Each block of ``_SEED_BLOCK`` episodes e in [start, stop), as the list of their seed pairs
    ``(derive_seed(master_seed, e, 0), derive_seed(master_seed, e, 1))``.

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
        yield list(zip(*(words[..., 0] | words[..., 1] << np.uint64(32)).tolist()))


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One run of one tag against the optimum ``opt``, one row per episode: ``served[e, j]`` is the server
    point of request j in episode e, ``costs[e, j]`` is ``dist[requests[j], served[e, j]]``, and ``totals``
    is ``episode_totals(costs)``. A run that keeps no rows holds ``served`` and ``costs`` as None.
    """

    algorithm: str
    master_seed: int
    opt: float
    requests: np.ndarray  # the request points, in request order
    served: np.ndarray | None
    costs: np.ndarray | None
    totals: np.ndarray


def episode_totals(costs: np.ndarray) -> np.ndarray:
    """Each row of a 2-d cost array added left to right from 0.0, as ``total += cost`` would.

    Not ``sum()``, which from Python 3.12 compensates rounding: ``accumulate`` adds in order.
    Its first partial sum is the first cost, so ``+ 0.0`` gives a row of -0.0 the loop's 0.0.
    """
    with np.errstate(over="ignore"):  # a row that overflows totals inf, which _record refuses
        return np.add.accumulate(costs, axis=1)[:, -1] + 0.0


def _record(inst: Instance, tag: str, master_seed: int, solve, blocks, keep_rows: bool) -> RunRecord:
    """The record of blocks of episodes' served points against the optimum ``solve()``, asked for only after
    the last block; refuses an optimum, total or ratio that is not finite."""
    requests = np.asarray(inst.requests)
    served, costs, totals = [], [], []
    for block in blocks:
        block_served = np.array(block)
        block_costs = inst.metric.dist[requests, block_served]
        totals.append(episode_totals(block_costs))
        if keep_rows:
            served.append(block_served)
            costs.append(block_costs)
    totals = np.concatenate(totals)
    opt = solve().cost
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(totals / opt if opt > 0.0 else totals)
    if not (math.isfinite(opt) and finite.all()):
        e = int(finite.argmin())
        raise ValueError(f"{tag} run overflows: episode {e} costs {float(totals[e])!r} against an optimum of {opt!r}")
    rows = (np.concatenate(served), np.concatenate(costs)) if keep_rows else (None, None)
    return RunRecord(tag, int(master_seed), float(opt), requests, *rows, totals)


@dataclass(frozen=True)
class PipelineSetup:
    """Episode-independent preprocessing shared by all episodes of a run."""

    inst: Instance
    g: tuple  # nearest-server image of each request, in request order
    g_sub: tuple  # submetric index of each request's image
    servers: ServerCounts  # the server submetric's classes and per-class server counts, for frt_embed
    stock: dict  # each class representative's server instances, highest first, for attach_servers
    lam: float


def _checked_images(inst: Instance) -> tuple:
    """Each request's image (``discretize_all``), after a check of the triangles through it."""
    g = discretize_all(inst)
    violation = _request_triangle_violation(inst, g)
    if violation is not None:
        raise ValueError(f"invalid metric: {violation}")
    return g


def pipeline_setup(inst: Instance, g: tuple | None = None) -> PipelineSetup:
    """What every episode of a run shares; ``g`` is the images, if already checked."""
    sub, mapping = submetric_of_servers(inst)
    if g is None:
        g = _checked_images(inst)
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
        lam=lambda_for_n(inst.n),
    )


def run_episode(setup: PipelineSetup, embed_seed: int, play_seed: int, *, algorithm="rwgm", check=False) -> list:
    """Play one full episode of a randomized tag: embed, attach servers, serve every request.

    Returns the server point that served each request, in request order.
    With ``check`` set, every decision is verified against the per-request
    guarantees: the cost d(r, s) never exceeds the inner cost d(g, s) plus
    the discretization distance d(g, r), and the inner (submetric) cost never
    exceeds the tree cost the matcher paid.
    """
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

    if check:
        dist = setup.inst.metric.dist
        tol = 1e-9 * float(dist.max())
        for i, (r, g, s, tree_cost) in enumerate(zip(setup.inst.requests, setup.g, served, tree_costs)):
            inner_cost = float(dist[g, s])
            if float(dist[r, s]) > inner_cost + float(dist[g, r]) + tol:
                raise AssertionError(f"request {i}: wrapper cost exceeds inner cost plus detour")
            if inner_cost > tree_cost * (1.0 + 1e-12) + tol:
                raise AssertionError(f"request {i}: tree cost fails to dominate the metric cost")
    return served


def run_pipeline(inst: Instance, master_seed: int, episodes: int, *, check: bool = False) -> RunRecord:
    """The rwgm pipeline's seeded episodes, totals only, with the optimum solved beside them as in
    ``run_algorithm``; ``report_to_dict`` gives their statistics."""
    return run_algorithm(inst, "rwgm", master_seed, episodes, check=check, keep_rows=False)


def run_algorithm(
    inst: Instance, tag: str, master_seed: int, episodes: int, *, check: bool = False, keep_rows: bool = True
) -> RunRecord:
    """Run one algorithm tag; returns its record, with the episodes' rows if ``keep_rows``.

    Deterministic tags collapse to a single episode regardless of the
    requested count. The request triangles are checked once, before any
    episode, under every tag. The optimum is solved on one helper thread
    beside the episodes and joined before the call returns or raises an
    ``Exception``; record and errors are those of a solve first (a failed
    solve's error outranks an episode's).
    """
    _check_algorithms([tag])
    _check_counts(episodes, master_seed)
    g = _checked_images(inst)
    solve = _solve_beside(inst)
    try:
        return _run_tag(inst, tag, master_seed, episodes, solve, g, check, keep_rows)
    except Exception:
        solve()  # raises the solve's error, if it failed
        raise


def _solve_beside(inst: Instance):
    """Start ``optimal_matching(inst)`` on a daemon thread; returns a call that joins it, then returns
    its result or raises its error."""
    _linear_sum_assignment()  # loading the solver edits sys.modules: done here, not beside another thread
    outcome = []

    def target() -> None:
        try:
            outcome.append(optimal_matching(inst))
        except BaseException as exc:  # for the caller to raise, not for threading.excepthook
            outcome.append(exc)

    def solve():
        thread.join()
        if isinstance(outcome[0], BaseException):
            raise outcome[0]
        return outcome[0]

    thread = threading.Thread(target=target, name="hstmatch-optimum", daemon=True)
    thread.start()
    return solve


def _check_counts(episodes, master_seed) -> None:
    """Refuse what ``range`` and the seed derivation would coerce or choke on."""
    if not (_is_int(episodes) and 1 <= episodes <= 2**32):  # one 32-bit spawn word per episode index
        raise ValueError(f"episodes must be a positive integer at most 2**32, got {episodes!r}")
    if not (_is_int(master_seed) and master_seed >= 0):
        raise ValueError(f"master_seed must be a non-negative integer, got {master_seed!r}")


def _run_tag(inst: Instance, tag: str, master_seed: int, episodes: int, solve, g, check=False, keep_rows=False):
    """run_algorithm's body, with checked images ``g`` of inst and its optimum from ``solve()``, which the
    optimal tag calls before it serves and every other tag after its last episode, so a solve overlaps them."""
    if tag == "greedy":
        blocks = [[run_greedy(inst)]]
    elif tag == "optimal":
        blocks = [[[inst.servers[srv_idx] for srv_idx, _ in solve().pairs]]]  # pairs come in request order
    else:
        setup = pipeline_setup(inst, g)
        blocks = (
            [run_episode(setup, embed, play, algorithm=tag, check=check) for embed, play in block]
            for block in _episode_seeds(master_seed, 0, episodes)
        )
    return _record(inst, tag, master_seed, solve, blocks, keep_rows)


def sweep(family: str, sizes, algorithms, episodes: int, master_seed: int, *, dim=2, coord_range=100.0):
    """One row of statistics per (size, algorithm); deterministic in the seed."""
    sizes, algorithms = list(sizes), list(algorithms)
    _check_algorithms(algorithms)
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if not algorithms:
        raise ValueError("algorithms must be nonempty")
    _check_counts(episodes, master_seed)
    specs = [  # every size is checked before any instance is built
        GeneratorSpec(family, n, seed=derive_seed(master_seed, 0, si), dim=dim, coord_range=coord_range)
        for si, n in enumerate(sizes)
    ]
    rows = []
    for si, spec in enumerate(specs):
        inst = generate_instance(spec)
        g = _checked_images(inst)  # one check and one solve serve every tag
        om = optimal_matching(inst)  # solved first, so a zero optimum is refused before any tag runs
        if om.cost == 0.0:
            raise ValueError(f"instance (family={family}, n={spec.n}) has zero optimum")
        for ai, tag in enumerate(algorithms):
            report = report_to_dict(_run_tag(inst, tag, derive_seed(master_seed, 1, si, ai), episodes, lambda: om, g))
            rows.append((spec.n, tag, report["mean_ratio"], report["std_error"]))
    return rows


def sweep_csv(rows) -> str:
    return SWEEP_HEADER + "\n" + "".join(f"{n},{tag},{mean!r},{se!r}\n" for n, tag, mean, se in rows)


def trace_csv(record: RunRecord) -> str:
    """One row per decision, fixed header, episode-major order.

    Row (e, j) is ``f"{e},{j},{requests[j]},{served[e, j]},{costs[e, j]!r}\n"``.
    A cost is the distance from the step's request to the server, the same in
    every episode that pairs them, so each call formats the text after ``e,``
    once per distinct (step, server) pair.
    """
    served, requests = record.served, record.requests
    if served is None:
        raise ValueError("the record kept no rows to write")
    n = len(requests)
    width = int(served.max()) + 1
    pairs, inverse = np.unique(np.arange(n) * width + served, return_inverse=True)
    where = np.empty(len(pairs), dtype=np.intp)
    where[inverse.ravel()] = np.arange(served.size)  # one occurrence of each pair
    steps, points = np.divmod(pairs, width)
    columns = (steps.tolist(), requests[steps].tolist(), points.tolist(), record.costs.ravel()[where].tolist())
    texts = [f"{j},{r},{s},{cost!r}" for j, r, s, cost in zip(*columns)]
    parts = [TRACE_HEADER + "\n"]
    for e, row in enumerate(inverse.reshape(served.shape).tolist()):
        prefix = f"{e},"
        parts.append(prefix + ("\n" + prefix).join(map(texts.__getitem__, row)) + "\n")
    return "".join(parts)


def report_to_dict(record: RunRecord) -> dict:
    """A run's statistics over its episodes' cost ratios; refuses a mean or standard error that overflows.

    ``kind`` is "ratio" when the optimum is positive; a zero optimum reports absolute costs instead, as
    ``mean_cost``, since the ratio is undefined there.
    """
    ratio = record.opt > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        values = record.totals / record.opt if ratio else record.totals
        mean = float(values.mean())
        std_error = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise ValueError(f"{record.algorithm} run overflows: mean {mean!r}, standard error {std_error!r}")
    qs = np.quantile(values, [0.1, 0.5, 0.9])
    return {
        "algorithm": record.algorithm,
        "episodes": len(values),
        "opt": record.opt,
        "kind": "ratio" if ratio else "absolute-cost",
        "mean_ratio" if ratio else "mean_cost": mean,
        "std_error": std_error,
        "min": float(values.min()),
        "max": float(values.max()),
        "quantiles": {"p10": float(qs[0]), "p50": float(qs[1]), "p90": float(qs[2])},
        "master_seed": record.master_seed,
    }
