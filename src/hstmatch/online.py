"""Online players: the randomized tree matcher, discretization, and greedy.

The tree matcher serves a request by climbing from the request leaf to the
lowest ancestor whose subtree still holds an unassigned server (a "green"
node), then walking back down, choosing uniformly among green children at
every level. Descent can instead be weighted by the number of unassigned
servers per child subtree ("proportional" policy); that variant is offered
for comparison only and carries no bound claims.
"""
from __future__ import annotations

import numpy as np

from .hst import HstTree
from .metric import _CHUNK_ENTRIES, TRIANGLE_SLACK, Instance, _checked_seed, _is_int, _triangle_violation

__all__ = [
    "POLICIES",
    "RwgmState",
    "rwgm_init",
    "rwgm_serve",
    "pick_a_leaf",
    "discretize_all",
    "run_greedy",
]

POLICIES = ("uniform", "proportional")


# 64-bit outputs pulled from the bit generator each time a state's 32-bit
# stream runs dry; each yields two 32-bit words. An episode of the benchmark
# inputs draws 38-147 words, so one or two blocks cover it; 16, 32, 128 and
# 256 timed no faster in-process on a 2-core Xeon.
_RAW_BLOCK = 64


class RwgmState:
    """Mutable single-episode state for the tree matcher.

    ``subtree_remaining`` counts the unassigned servers in each node's
    subtree, so a leaf's entry is its own count and a node is green exactly
    when its entry is positive. ``green[u]`` lists u's green children in
    child order once a uniform descent has chosen among them, and is None
    before and for a node with one child, which a descent steps through.
    ``parent``, ``child_bounds`` and ``first_leaf`` are the tree's own, bound
    once for serving to read; serving reads no distance. The descent draws
    come from a 32-bit stream read off a PCG64's 64-bit outputs, the low half
    of each output first, as numpy's ``next_uint32`` splits them. One state
    serves one request sequence; episodes that run concurrently need their
    own states and random streams.
    """

    __slots__ = ("tree", "parent", "child_bounds", "first_leaf", "subtree_remaining", "green", "policy", "bits", "u32")

    def __init__(self, tree: HstTree, bits: np.random.PCG64, policy: str) -> None:
        self.tree = tree
        self.parent = tree.parent
        self.child_bounds = tree.child_bounds
        self.first_leaf = tree.level_bounds[-2]
        self.subtree_remaining = list(tree.servers)
        self.green = [None] * len(self.subtree_remaining)
        self.policy = policy
        self.bits = bits
        self.u32 = iter(())


def rwgm_init(tree: HstTree, seed, policy: str = "uniform") -> RwgmState:
    """Fresh episode state.

    ``seed`` is a non-negative integer (numpy integers included), which seeds
    the episode's PCG64 stream, so every descent draw equals what
    ``np.random.default_rng(seed).integers(n)`` would return; or that PCG64
    itself, which is read in place and advances as the episode draws.
    Anything else, None and other bit generators among them, is refused.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    bits = seed if isinstance(seed, np.random.PCG64) else np.random.PCG64(_checked_seed(seed))
    state = RwgmState(tree, bits, policy)
    if state.subtree_remaining[tree.root] <= 0:
        raise ValueError("tree carries no servers")
    return state


def _below(state: RwgmState, n: int) -> int:
    """Uniform integer in [0, n) for 1 <= n <= 2**32, as ``Generator.integers(n)`` draws it.

    Lemire's multiply-and-reject method on the 32-bit stream, replayed from
    numpy's ``buffered_bounded_lemire_uint32``: nothing is drawn for n == 1,
    and a draw is rejected only when the low word of ``u * n`` falls below
    ``(2**32 - n) % n``.
    """
    if n == 1:
        return 0
    while True:
        try:
            m = next(state.u32) * n
        except StopIteration:
            # A little-endian view puts each output's low half first, on any platform.
            state.u32 = iter(state.bits.random_raw(_RAW_BLOCK).astype("<u8").view("<u4").tolist())
            continue
        if m & 0xFFFFFFFF >= n or m & 0xFFFFFFFF >= (0x100000000 - n) % n:
            return m >> 32


def pick_a_leaf(state: RwgmState, u: int) -> int:
    """Descend from a green node, one of 0..n_nodes - 1, to a leaf with an unassigned server.

    Draws one integer from the episode stream per descent level with more
    than one choice. Under the uniform policy each green child is equally
    likely regardless of how many servers its subtree holds; under the
    proportional policy children are weighted by their unassigned-server
    counts, which sum to the node's own count.
    """
    if type(u) is not int and not _is_int(u):
        raise ValueError(f"node {u!r} is not an integer")
    counts = state.subtree_remaining
    if not 0 <= u < len(counts):
        raise ValueError(f"node {u} outside 0..{len(counts) - 1}")
    if not counts[u]:
        raise ValueError(f"node {u} is not green")
    return _descend(state, u)


def _descend(state: RwgmState, u: int) -> int:
    """``pick_a_leaf`` from a green node u of the tree, unchecked: the one descent ``rwgm_serve`` shares."""
    counts, b, first_leaf = state.subtree_remaining, state.child_bounds, state.first_leaf
    if state.policy == "uniform":
        green = state.green
        while u < first_leaf:
            c = b[u]
            if b[u + 1] > c + 1:  # an only child is green, as u is, and _below(1) would draw nothing
                kids = green[u]
                if kids is None:
                    kids = green[u] = [v for v in range(c, b[u + 1]) if counts[v]]
                c = kids[_below(state, len(kids))]
            u = c
    else:
        while u < first_leaf:
            r = _below(state, counts[u])
            for c in range(b[u], b[u + 1]):
                r -= counts[c]
                if r < 0:
                    u = c
                    break
    return u


def rwgm_serve(state: RwgmState, request_leaf: int):
    """Serve one request at a leaf; return (server leaf, meet level).

    A request leaf that still holds a server serves itself, at level 0.
    Otherwise the climb stops at the lowest green ancestor, the meet of the
    request and the chosen leaf since descent only enters green children;
    its level, the climb's step count, is what the tree charges. Raises when
    the request is not a leaf or when every server has been assigned. One walk up
    from the chosen leaf drops its count and every ancestor's by one; under
    the uniform policy it also takes every node whose count reaches zero out
    of its parent's green-child list, if that list has been built.
    """
    if type(request_leaf) is not int and not _is_int(request_leaf):
        raise ValueError(f"request node {request_leaf!r} is not an integer")
    parent = state.parent
    if not state.first_leaf <= request_leaf < len(parent):
        raise ValueError(f"request node {request_leaf} is not a leaf of the tree")
    counts = state.subtree_remaining
    v = chosen = request_leaf
    level = 0
    if not counts[v]:
        if not counts[0]:  # the root holds no server
            raise RuntimeError("all servers have been assigned")
        while not counts[v]:
            v = parent[v]
            level += 1
        chosen = _descend(state, v)
    # Counts never shrink going up, so the nodes that turn red are the chosen leaf
    # and its ancestors below the first that stays green; only uniform descents build lists.
    green = state.green
    w, up = chosen, parent[chosen]
    while counts[w] == 1 and up is not None:
        counts[w] = 0
        if green[up] is not None:
            green[up].remove(w)
        w, up = up, parent[up]
    while w is not None:
        counts[w] -= 1
        w = parent[w]
    return chosen, level


def discretize_all(inst: Instance) -> tuple:
    """Nearest distinct server point of every request, in request order, once the triangles it needs are checked.

    ``argmin`` returns the first minimum over the sorted server points, so ties go to the lowest point index.
    For request r, image g and each server point s, d(r, s) <= d(r, g) + d(g, s) and d(g, s) <= d(g, r) + d(r, s)
    must hold with validate_metric's slack; the first to fail, by request, then by server point, the first
    inequality before the second, raises ``ValueError("invalid metric: ...")``. One pass, a block of requests at
    a time, reads at most _CHUNK_ENTRIES request-to-server distances at once.
    """
    d = inst.metric.dist
    pts = np.array(sorted(set(inst.servers)))
    requests, images = np.asarray(inst.requests), []
    tol = TRIANGLE_SLACK * float(d.max())
    step = max(1, _CHUNK_ENTRIES // len(pts))
    with np.errstate(over="ignore"):  # an overflowing detour is never shorter
        for lo in range(0, len(requests), step):
            r = requests[lo : lo + step]
            rs = d.take(r[:, None] * len(d) + pts)  # d[r][:, pts] by flat index, with no whole row copied
            g = pts[rs.argmin(axis=1)]
            gs = d.take(g[:, None] * len(d) + pts)
            over = rs - (d[r, g][:, None] + gs) > tol
            bad = over | (gs - (d[g, r][:, None] + rs) > tol)
            if bad.any():
                i, j = np.unravel_index(int(bad.argmax()), bad.shape)
                ijk = (r[i], pts[j], g[i]) if over[i, j] else (g[i], pts[j], r[i])
                raise ValueError(f"invalid metric: {_triangle_violation(d, *map(int, ijk))}")
            images += g.tolist()
    return tuple(images)


def run_greedy(inst: Instance) -> list:
    """Play the whole request sequence greedily on the original metric.

    Returns the server point that served each request, in request order.
    Each request takes the nearest server point with an unused instance.
    ``argmin`` returns the first minimum over the sorted points, so ties go
    to the lowest point index and the run is deterministic.
    """
    dist = inst.metric.dist
    pts, left = np.unique(inst.servers, return_counts=True)
    used_up = np.zeros(len(pts))  # +inf at every point with no instance left
    served = []
    for r in inst.requests:
        i = int((dist[r, pts] + used_up).argmin())
        left[i] -= 1
        used_up[i] = 0.0 if left[i] else np.inf
        served.append(int(pts[i]))
    return served
