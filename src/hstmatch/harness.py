"""End-to-end pipeline, Monte Carlo reports, and the sweep table.

A pipeline episode embeds the server submetric into one random tree, places the servers on its
leaves and serves each request's discretized image (found and checked once per run, before any
episode) on the tree matcher. The embedding is resampled per episode: the randomized strategy draws
both the tree and the descent choices, so the reported mean averages over both.

Randomness contract: episode e owns two integer seeds, slot 0 for the embedding and slot 1 for play,
each the 64-bit state word that ``SeedSequence(entropy=master_seed, spawn_key=(e, slot))``
generates, and each slot's stream is ``np.random.PCG64(seed)``. One vectorized SeedSequence, checked
against numpy's by the tests, gives each block of episodes its seeds and then the state words PCG64
seeds itself with. Identical seeds replay identical traces on any platform.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSpec, generate_instance
from .hst import EmbeddingParams, ServerCounts, attach_servers, count_servers, frt_embed, lambda_for_n
from .metric import TRIANGLE_SLACK, Instance, _checked_seed, _is_int, submetric_of_servers
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
    """Stable 64-bit child seed for a (master, key...) slot; the master and every key are non-negative integers."""
    key = tuple(int(_checked_seed(k, f"key[{i}]")) for i, k in enumerate(key))
    ss = np.random.SeedSequence(entropy=int(_checked_seed(master_seed, "master_seed")), spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SEED_BLOCK = 1024  # episodes whose streams are seeded in one numpy pass


def _hashmix(value: np.ndarray, init: int, mult: int, first: int, n: int) -> np.ndarray:
    """SeedSequence's hashes number first .. first + n - 1, the i-th on entry i of the last axis."""
    c = np.uint32(init) * np.uint32(mult) ** np.arange(first, first + n + 1, dtype=np.uint32)
    value = (value ^ c[:-1]) * c[1:]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


def _seed_sequence(entropy: np.ndarray, spawn_key: np.ndarray, n: int) -> np.ndarray:
    """``SeedSequence(entropy, spawn_key).generate_state(n, np.uint64)``, C-contiguous [..., n], for each row of the
    uint32 words ``entropy`` [..., k >= 1] against ``spawn_key`` [..., m], other axes broadcast. Numpy's hashes: 4 fill
    the pool (0 past the entropy), 12 mix it, 4 mix in each word past the pool, and 2n make the output."""
    pool = np.zeros((*entropy.shape[:-1], 4), dtype=np.uint32)
    pool[..., : entropy.shape[-1]] = entropy[..., :4]
    pool = _hashmix(pool, _INIT_A, _MULT_A, 0, 4)
    for src, dst in enumerate(~np.eye(4, dtype=bool)):  # each word into the other three
        pool[..., dst] = _mix(pool[..., dst], _hashmix(pool[..., src, None], _INIT_A, _MULT_A, 4 + 3 * src, 3))
    for i, word in enumerate([*np.moveaxis(entropy[..., 4:], -1, 0), *np.moveaxis(spawn_key, -1, 0)]):
        pool = _mix(pool, _hashmix(word[..., None], _INIT_A, _MULT_A, 16 + 4 * i, 4))
    pool = np.broadcast_to(pool, np.broadcast_shapes(pool.shape, (*spawn_key.shape[:-1], 1)))  # keys of no words too
    words = _hashmix(pool[..., np.arange(2 * n) % 4], _INIT_B, _MULT_B, 0, 2 * n).astype(np.uint64)
    return np.ascontiguousarray(words[..., 0::2] | words[..., 1::2] << np.uint64(32))  # the halves' op is strided


@dataclass
class _StateWords(np.random.bit_generator.ISeedSequence):
    """Stands in for ``SeedSequence(seed)``: hands a bit generator the state words ``_seed_sequence`` computed."""

    words: np.ndarray  # C-contiguous uint64[4]: PCG64 reads the raw buffer, so a strided view seeds another stream

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _episode_streams(master_seed: int, start: int, stop: int):
    """Each block of ``_SEED_BLOCK`` episodes e in [start, stop), as the list of each episode's (embedding, play)
    bit generators ``np.random.PCG64(derive_seed(master_seed, e, slot))``. One ``_seed_sequence`` pass on the master's
    words and the spawn words (e, slot) gives a block's seeds, and one on each seed's (low, high) words the state
    words PCG64 seeds itself with. Needs ``stop <= 2**32``: a larger episode index is two spawn words."""
    m = int(master_seed)
    master = np.array([m >> s & 0xFFFFFFFF for s in range(0, max(m.bit_length(), 1), 32)], dtype=np.uint32)
    for lo in range(start, stop, _SEED_BLOCK):
        e = np.arange(lo, min(lo + _SEED_BLOCK, stop), dtype=np.uint32)
        keys = np.stack(np.broadcast_arrays(e[:, None], np.arange(2, dtype=np.uint32)), axis=-1)  # [episode, slot, 2]
        seeds = _seed_sequence(master, keys, 1) >> np.array([0, 32], dtype=np.uint64) & 0xFFFFFFFF  # (low, high)
        states = _seed_sequence(seeds.astype(np.uint32), e[:0], 4)  # no spawn key: SeedSequence(seed)
        yield [(np.random.PCG64(_StateWords(a)), np.random.PCG64(_StateWords(b))) for a, b in states]


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One run of one tag against the optimum ``opt``, one row per episode: ``served[e, j]`` is the server
    point of request j in episode e, and ``totals`` is ``episode_totals`` of the costs
    ``dist[requests, served]``. A run that keeps no rows holds ``served`` as None.
    """

    algorithm: str
    master_seed: int
    opt: float
    served: np.ndarray | None
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
    served, totals = [], []
    for block in blocks:
        block_served = np.array(block)
        totals.append(episode_totals(inst.metric.dist[requests, block_served]))
        if keep_rows:
            served.append(block_served)
    totals = np.concatenate(totals)
    opt = solve().cost
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(totals / opt if opt > 0.0 else totals)
    if not (math.isfinite(opt) and finite.all()):
        e = int(finite.argmin())
        raise ValueError(f"{tag} run overflows: episode {e} costs {float(totals[e])!r} against an optimum of {opt!r}")
    return RunRecord(tag, int(master_seed), float(opt), np.concatenate(served) if keep_rows else None, totals)


@dataclass(frozen=True)
class PipelineSetup:
    """Episode-independent preprocessing shared by all episodes of a run.

    ``opening`` is the run's self-serving opening: the longest prefix of the requests, at most n - 1 of
    them, whose image class still holds a server when it arrives. The tree matcher serves each at its own
    leaf, at tree cost 0 and without a draw, in every episode; ``rest`` is ``servers`` less those servers.
    """

    inst: Instance
    g: tuple  # nearest-server image of each request, in request order
    g_sub: tuple  # submetric index of each request's image
    servers: ServerCounts  # the server submetric's classes and full per-class server counts, as embed dumps them
    stock: dict  # each class representative's server instances as a tuple, highest first, for attach_servers
    lam: float
    opening: tuple  # the server point of each opening request, in request order
    rest: ServerCounts  # servers with the opening's taken out, for frt_embed


def pipeline_setup(inst: Instance, g: tuple | None = None) -> PipelineSetup:
    """What every episode of a run shares; ``g`` is ``discretize_all(inst)``'s result, found here if not given."""
    sub, mapping = submetric_of_servers(inst)
    g = discretize_all(inst) if g is None else g
    counts = count_servers(sub, [mapping[p] for p in inst.servers])
    rep_of = counts.rep_of.tolist()
    stock: dict = {}
    for p in sorted(inst.servers, reverse=True):
        stock.setdefault(counts.reps[rep_of[mapping[p]]], []).append(p)
    g_sub = tuple(mapping[p] for p in g)
    left, opening = counts.per_class.tolist(), []
    for q in g_sub[:-1]:  # the last request is always the matcher's, so the root stays green
        c = rep_of[q]
        if not left[c]:
            break
        left[c] -= 1  # leaves c servers: entry c of the stock, as run_episode takes it
        opening.append(stock[counts.reps[c]][left[c]])
    return PipelineSetup(
        inst=inst,
        g=g,
        g_sub=g_sub,
        servers=counts,
        stock={q: tuple(points) for q, points in stock.items()},
        lam=lambda_for_n(inst.n),
        opening=tuple(opening),
        rest=counts._replace(per_class=np.array(left, dtype=counts.per_class.dtype)),
    )


def run_episode(setup: PipelineSetup, embed_seed, play_seed, *, algorithm="rwgm", check=False) -> list:
    """Play one full episode of a randomized tag: embed, attach servers, serve every request.

    Each seed is a non-negative integer or the PCG64 bit generator it seeds, as ``_episode_streams``
    builds them. Returns the server point that served each request, in request order.
    The episode starts after the run's opening (``PipelineSetup.opening``):
    its tree is drawn over ``setup.rest``, the same tree with those servers
    taken, and only the later requests reach the matcher. Self-serves draw
    nothing and build no green list, so this equals serving every request.
    With ``check`` set, every decision is verified against the per-request
    guarantees: the cost d(r, s) never exceeds the inner cost d(g, s) plus
    the discretization distance d(g, r), and the inner (submetric) cost never
    exceeds ``tree.level_distance`` at the matcher's level (0 for the opening).
    """
    if algorithm not in _TREE_POLICY:
        raise ValueError(f"run_episode plays a randomized tag, one of {tuple(_TREE_POLICY)}, got {algorithm!r}")
    tree = frt_embed(setup.rest, EmbeddingParams(lam=setup.lam, seed=embed_seed))
    stock = attach_servers(tree, setup.stock)
    state = rwgm_init(tree, play_seed, policy=_TREE_POLICY[algorithm])
    point_leaf, first_leaf = tree.point_leaf, state.first_leaf
    left = state.subtree_remaining  # a serve that leaves c servers at a leaf took entry c of the leaf's stock

    served = list(setup.opening)
    levels = [0] * len(served)
    for q in setup.g_sub[len(served):]:
        server_leaf, level = rwgm_serve(state, point_leaf[q])
        served.append(stock[server_leaf - first_leaf][left[server_leaf]])
        if check:
            levels.append(level)

    if check:
        dist = setup.inst.metric.dist
        tol = TRIANGLE_SLACK * float(dist.max())
        for i, (r, g, s, level) in enumerate(zip(setup.inst.requests, setup.g, served, levels)):
            inner_cost = float(dist[g, s])
            if float(dist[r, s]) > inner_cost + float(dist[g, r]) + tol:
                raise AssertionError(f"request {i}: wrapper cost exceeds inner cost plus detour")
            if inner_cost > tree.level_distance[level] * (1.0 + 1e-12) + tol:
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
    g = discretize_all(inst)
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
    _checked_seed(master_seed, "master_seed")


def _run_tag(inst: Instance, tag: str, master_seed: int, episodes: int, solve, g, check=False, keep_rows=False):
    """run_algorithm's body, with ``g`` = ``discretize_all(inst)`` and inst's optimum from ``solve()``, which the
    optimal tag calls before it serves and every other tag after its last episode, so a solve overlaps them."""
    if tag == "greedy":
        blocks = [[run_greedy(inst)]]
    elif tag == "optimal":
        blocks = [[solve().served]]
    else:
        setup = pipeline_setup(inst, g)
        blocks = (
            [run_episode(setup, embed, play, algorithm=tag, check=check) for embed, play in block]
            for block in _episode_streams(master_seed, 0, episodes)
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
        g = discretize_all(inst)  # one check and one solve serve every tag
        om = optimal_matching(inst)  # solved first, so a zero optimum is refused before any tag runs
        if om.cost == 0.0:
            raise ValueError(f"instance (family={family}, n={spec.n}) has zero optimum")
        for ai, tag in enumerate(algorithms):
            report = report_to_dict(_run_tag(inst, tag, derive_seed(master_seed, 1, si, ai), episodes, lambda: om, g))
            rows.append((spec.n, tag, report["mean_ratio"], report["std_error"]))
    return rows


def sweep_csv(rows) -> str:
    return SWEEP_HEADER + "\n" + "".join(f"{n},{tag},{mean!r},{se!r}\n" for n, tag, mean, se in rows)


def trace_csv(inst: Instance, record: RunRecord) -> str:
    """One row per decision of a run on ``inst``, fixed header, episode-major order.

    Row (e, j) is ``f"{e},{j},{r},{s},{dist[r, s]!r}\n"`` for request point
    ``r = requests[j]`` and server point ``s = served[e, j]``. The cost is the
    same in every episode that pairs them, so each call formats the text after
    ``e,`` once per distinct (step, server) pair.
    """
    served, requests = record.served, np.asarray(inst.requests)
    if served is None:
        raise ValueError("the record kept no rows to write")
    width = int(served.max()) + 1
    pairs, inverse = np.unique(np.arange(len(requests)) * width + served, return_inverse=True)
    steps, points = np.divmod(pairs, width)
    at = requests[steps]
    columns = (steps.tolist(), at.tolist(), points.tolist(), inst.metric.dist[at, points].tolist())
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
    return {
        "algorithm": record.algorithm,
        "episodes": len(values),
        "opt": record.opt,
        "kind": "ratio" if ratio else "absolute-cost",
        "mean_ratio" if ratio else "mean_cost": mean,
        "std_error": std_error,
        "min": float(values.min()),
        "max": float(values.max()),
        "quantiles": dict(zip(("p10", "p50", "p90"), _quantiles(values, (0.1, 0.5, 0.9)))),
        "master_seed": record.master_seed,
    }


def _quantiles(values: np.ndarray, qs) -> list:
    """``np.quantile(values, qs)`` by its linear method, bit for bit on finite values other than -0.0, from one sorted
    copy: ``np.quantile`` itself calls ``np.unique``, which imports ``numpy.ma`` on its first call."""
    ordered = np.sort(values)
    last = len(ordered) - 1
    out = []
    for q in qs:
        at = last * q
        lo = math.floor(at)
        a, b, t = float(ordered[lo]), float(ordered[min(lo + 1, last)]), at - lo
        out.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)  # numpy's _lerp
    return out
