"""Shared test apparatus: independent oracles and small tree/instance builders.

The oracles here deliberately avoid the library's own code paths: matching
costs come from factorial enumeration, green flags from a full bottom-up
recompute, and expected values for tiny randomized cases from explicit
branch enumeration.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from hstmatch.hst import EmbeddingParams, HstTree, RawTree, attach_servers, normalize_hst, tree_distance
from hstmatch.metric import FiniteMetric, Instance, ensure_valid_metric
from hstmatch.online import POLICIES, RwgmState, rwgm_init, rwgm_serve


def brute_force_cost(inst: Instance) -> float:
    """Minimum matching cost by enumerating all n! assignments."""
    n = inst.n
    if n > 8:
        raise ValueError("brute force is for tiny instances only")
    d = inst.metric.dist
    best = math.inf
    for perm in itertools.permutations(range(n)):
        c = 0.0
        for i in range(n):
            c += d[inst.servers[i], inst.requests[perm[i]]]
            if c >= best:
                break
        if c < best:
            best = c
    return best


def reference_zero_distance_classes(dist) -> tuple[list, list]:
    """Greedy scan: each point joins the first representative at distance zero or becomes one."""
    reps: list = []
    rep_of = [0] * dist.shape[0]
    for i in range(dist.shape[0]):
        for ri, r in enumerate(reps):
            if dist[i, r] == 0.0:
                rep_of[i] = ri
                break
        else:
            rep_of[i] = len(reps)
            reps.append(i)
    return reps, rep_of


def reference_frt_embed(metric: FiniteMetric, params: EmbeddingParams) -> HstTree:
    """The embedding built cluster by cluster, the slow oracle for ``frt_embed``.

    Zero-distance classes come from a greedy scan, each level splits every
    cluster by its members' first covering centers, singleton clusters stop
    as shallow leaves, and ``normalize_hst`` extends them with dummy chains
    and numbers the nodes breadth-first.
    """
    ensure_valid_metric(metric)
    lam = float(params.lam)
    npts = len(metric)
    reps, rep_of = reference_zero_distance_classes(metric.dist)
    k = len(reps)

    if k == 1:
        raw = RawTree(parent=[None], level=[0], leaf_point={0: reps[0]}, lam=lam)
    else:
        rng = np.random.default_rng(params.seed)
        beta = lam ** rng.random()
        perm = rng.permutation(k)

        d = metric.dist[np.ix_(reps, reps)]
        d_min = float(d[d > 0.0].min())
        dn = d / d_min
        diameter = float(dn.max())
        height = max(1, math.ceil(math.log(diameter) / math.log(lam)) + 1) if diameter > 1.0 else 1

        dp = dn[perm]
        parent: list = [None]
        level: list = [height]
        leaf_point: dict = {}
        clusters = [(0, np.arange(k))]
        for lv in range(height - 1, -1, -1):
            radius = beta * lam ** (lv - 1)
            nxt = []
            for node, members in clusters:
                covered = dp[:, members] <= radius
                winner = covered.argmax(axis=0)
                for w in np.unique(winner):
                    group = members[winner == w]
                    cid = len(parent)
                    parent.append(node)
                    level.append(lv)
                    if group.size == 1:
                        leaf_point[cid] = reps[int(group[0])]
                    else:
                        nxt.append((cid, group))
            clusters = nxt
        assert not clusters, "partition did not reach singletons"

        raw = RawTree(parent=parent, level=level, leaf_point=leaf_point, lam=lam, scale=lam * d_min)
    t = normalize_hst(raw)
    rep_leaf = {pt: leaf for leaf, pt in t.leaf_point.items()}
    point_leaf = {p: rep_leaf[reps[rep_of[p]]] for p in range(npts)}
    return dataclasses.replace(t, point_leaf=point_leaf)


class ReferenceRwgmState:
    """Tree matcher state drawing through ``Generator.integers``, the oracle for ``RwgmState``."""

    __slots__ = ("tree", "remaining", "subtree_remaining", "green", "rng", "policy")

    def __init__(self, tree: HstTree, rng: np.random.Generator, policy: str) -> None:
        n = tree.n_nodes
        self.tree = tree
        self.remaining = [0] * n
        for leaf, m in tree.leaf_multiplicity.items():
            self.remaining[leaf] = int(m)
        counts = list(self.remaining)
        for v in range(n - 1, 0, -1):
            counts[tree.parent[v]] += counts[v]
        self.subtree_remaining = counts
        self.green = [c > 0 for c in counts]
        self.rng = rng
        self.policy = policy


def reference_rwgm_init(tree: HstTree, seed, policy: str = "uniform") -> ReferenceRwgmState:
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    state = ReferenceRwgmState(tree, rng, policy)
    if state.subtree_remaining[tree.root] <= 0:
        raise ValueError("tree carries no servers")
    return state


def reference_pick_a_leaf(state: ReferenceRwgmState, u: int) -> int:
    """Descent with one ``rng.integers`` call per level, over the green children."""
    if not state.green[u]:
        raise ValueError(f"node {u} is not green")
    tree = state.tree
    green = state.green
    rng = state.rng
    while tree.children[u]:
        kids = [c for c in tree.children[u] if green[c]]
        if state.policy == "uniform":
            u = kids[int(rng.integers(len(kids)))]
        else:
            counts = state.subtree_remaining
            total = sum(counts[c] for c in kids)
            r = int(rng.integers(total))
            for c in kids:
                r -= counts[c]
                if r < 0:
                    u = c
                    break
    return u


def reference_rwgm_serve(state: ReferenceRwgmState, request_leaf: int):
    """Serve one request the way ``rwgm_serve`` must: climb, descend, refresh green flags."""
    tree = state.tree
    if not 0 <= request_leaf < tree.n_nodes or tree.children[request_leaf]:
        raise ValueError(f"request node {request_leaf} is not a leaf of the tree")
    v = request_leaf
    while v is not None and not state.green[v]:
        v = tree.parent[v]
    if v is None:
        raise RuntimeError("all servers have been assigned")
    chosen = reference_pick_a_leaf(state, v)
    state.remaining[chosen] -= 1
    w = chosen
    while w is not None:
        state.subtree_remaining[w] -= 1
        if state.subtree_remaining[w] == 0:
            state.green[w] = False
        w = tree.parent[w]
    return chosen, tree.level_distance[tree.level[v]]


def recompute_green(state: RwgmState) -> list:
    """Green flags rebuilt from scratch out of the leaf multiplicities."""
    t = state.tree
    green = [False] * t.n_nodes
    for v in range(t.n_nodes - 1, -1, -1):
        if t.is_leaf(v):
            green[v] = state.remaining[v] > 0
        else:
            green[v] = any(green[c] for c in t.children[v])
    return green


def height1_tree(n_leaves: int, lam: float = 3.0, scale: float = 1.0) -> HstTree:
    parent = [None] + [0] * n_leaves
    level = [1] + [0] * n_leaves
    leaf_point = {i + 1: i for i in range(n_leaves)}
    return normalize_hst(RawTree(parent, level, leaf_point, lam=lam, scale=scale))


def with_multiplicity(t: HstTree, mult_by_point: dict) -> HstTree:
    """Attach server counts given per-point (not per-leaf) multiplicities."""
    full = {leaf: 0 for leaf in t.leaves}
    for p, m in mult_by_point.items():
        full[t.point_leaf[p]] = m
    return dataclasses.replace(t, leaf_multiplicity=full)


def random_tree(rng, height: int, lam: float, scale: float = 1.0, max_children: int = 3) -> HstTree:
    """Random tree of exactly the given height; leaf i carries point i."""
    parent = [None]
    level = [height]
    frontier = [0]
    for lv in range(height - 1, -1, -1):
        nxt = []
        for u in frontier:
            n_kids = int(rng.integers(1, max_children + 1)) if u != 0 else int(rng.integers(2, max_children + 1))
            for _ in range(n_kids):
                parent.append(u)
                level.append(lv)
                nxt.append(len(parent) - 1)
        frontier = nxt
    leaf_point = {v: i for i, v in enumerate(frontier)}
    return normalize_hst(RawTree(parent, level, leaf_point, lam=lam, scale=scale))


def tree_metric(t: HstTree) -> FiniteMetric:
    """The metric the tree induces on its leaf points."""
    pts = sorted(t.point_leaf)
    n = len(pts)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = tree_distance(t, t.point_leaf[pts[i]], t.point_leaf[pts[j]])
    return FiniteMetric.from_matrix(d)


def random_tree_instance(rng, height: int, n: int, lam: float, scale: float = 1.0):
    """A random tree plus a random balanced instance living on its leaves."""
    t = random_tree(rng, height, lam, scale)
    n_leaves = len(t.leaves)
    probs = [1.0 / n_leaves] * n_leaves
    servers = [p for p, c in enumerate(rng.multinomial(n, probs)) for _ in range(c)]
    requests = [p for p, c in enumerate(rng.multinomial(n, probs)) for _ in range(c)]
    requests = [requests[i] for i in rng.permutation(n)]
    inst = Instance(metric=tree_metric(t), servers=tuple(servers), requests=tuple(requests))
    return attach_servers(t, inst), inst


def play_on_tree(tree: HstTree, request_points, rng, policy: str = "uniform"):
    """Run one episode directly on a tree; return (total cost, move count)."""
    state = rwgm_init(tree, rng, policy=policy)
    cost = 0.0
    moves = 0
    for p in request_points:
        leaf, c = rwgm_serve(state, tree.point_leaf[p])
        cost += c
        if leaf != tree.point_leaf[p]:
            moves += 1
    return cost, moves
