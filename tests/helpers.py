"""Shared test apparatus: independent oracles and small tree/instance builders.

The oracles here deliberately avoid the library's own code paths: matching
costs come from factorial enumeration, green flags from a full bottom-up
recompute, and expected values for tiny randomized cases from explicit
branch enumeration. Hand-built trees are written as a ``RawTree`` with
explicit levels and brought to uniform leaf depth by ``normalize_hst``;
the library builds trees only through ``frt_embed``.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hstmatch.hst import EmbeddingParams, HstTree
from hstmatch.metric import TRIANGLE_SLACK, FiniteMetric, Instance, ensure_valid_metric
from hstmatch.online import POLICIES, RwgmState, rwgm_init, rwgm_serve


@dataclass
class RawTree:
    """Rooted tree with explicit integer levels, prior to normalization.

    Children must sit exactly one level below their parent; childless nodes
    may end at any level and carry a point in ``leaf_point``.
    """

    parent: list
    level: list
    leaf_point: dict
    lam: float
    scale: float = 1.0


def _raw_children(raw: RawTree) -> tuple[int, list]:
    n = len(raw.parent)
    if len(raw.level) != n:
        raise ValueError("parent and level arrays disagree in length")
    roots = [v for v, p in enumerate(raw.parent) if p is None]
    if len(roots) != 1:
        raise ValueError(f"tree must have exactly one root, found {len(roots)}")
    children: list = [[] for _ in range(n)]
    for v, p in enumerate(raw.parent):
        if p is None:
            continue
        if not (0 <= p < n) or p == v:
            raise ValueError(f"node {v} has invalid parent {p}")
        children[p].append(v)
    root = roots[0]
    # Reachability from the root detects both cycles and disconnected parts.
    seen = [False] * n
    stack = [root]
    seen[root] = True
    count = 1
    while stack:
        u = stack.pop()
        for c in children[u]:
            if seen[c]:
                raise ValueError("cyclic parent links")
            seen[c] = True
            count += 1
            stack.append(c)
    if count != n:
        raise ValueError("tree is disconnected or cyclic")
    return root, children


def normalize_hst(raw: RawTree) -> HstTree:
    """Bring a raw tree to uniform leaf depth by inserting dummy chains.

    Each childless node above level 0 is extended downward with a chain of
    single-child dummies; its point moves to the new bottom leaf, so source
    leaf identities are preserved and pairwise distances grow by exactly the
    inserted edge weights. A lone node becomes a height-1 tree with a dummy
    root. The output is renumbered breadth-first from the root.
    """
    root, children = _raw_children(raw)
    parent = list(raw.parent)
    level = list(raw.level)
    leaf_point = dict(raw.leaf_point)

    for v, kids in enumerate(children):
        for c in kids:
            if level[c] != level[v] - 1:
                raise ValueError(
                    f"child {c} at level {level[c]} under parent {v} at level {level[v]}"
                )
        if kids and v in leaf_point:
            raise ValueError(f"internal node {v} carries a point")
        if not kids and v not in leaf_point:
            raise ValueError(f"leaf node {v} carries no point")
    if min(level) < 0:
        raise ValueError("negative node level")

    if not children[root]:
        new_root = len(parent)
        parent.append(None)
        level.append(level[root] + 1)
        children.append([root])
        parent[root] = new_root
        root = new_root

    for v in [u for u in range(len(parent)) if not children[u]]:
        cur = v
        while level[cur] > 0:
            w = len(parent)
            parent.append(cur)
            level.append(level[cur] - 1)
            children.append([])
            children[cur].append(w)
            cur = w
        if cur != v:
            leaf_point[cur] = leaf_point.pop(v)

    # Renumber breadth-first so parents always precede children.
    order = [root]
    for u in order:
        order.extend(children[u])
    new_id = {old: i for i, old in enumerate(order)}
    n = len(order)
    new_parent = tuple(None if parent[old] is None else new_id[parent[old]] for old in order)
    new_level = tuple(level[old] for old in order)
    new_children = tuple(tuple(new_id[c] for c in children[old]) for old in order)
    new_leaf_point = {new_id[old]: pt for old, pt in leaf_point.items()}

    return HstTree(
        lam=raw.lam,
        scale=raw.scale,
        height=level[root],
        parent=new_parent,
        children=new_children,
        level=new_level,
        leaf_point=new_leaf_point,
        point_leaf={pt: leaf for leaf, pt in new_leaf_point.items()},
        servers=(0,) * n,
    )


def tree_distance(t: HstTree, leaf_a: int, leaf_b: int) -> float:
    """Metric-unit distance between two leaves, read at the level where they meet."""
    for v in (leaf_a, leaf_b):
        if t.children[v]:
            raise ValueError(f"node {v} is not a leaf")
    a, b = leaf_a, leaf_b
    meet = 0
    while a != b:
        a = t.parent[a]
        b = t.parent[b]
        meet += 1
    return t.level_distance[meet]


def validate_hst(t: HstTree) -> None:
    """Check every structural invariant; raise ValueError on the first failure."""
    n = t.n_nodes
    if t.height < 1:
        raise ValueError("height must be at least 1")
    if not t.lam > 1.0:
        raise ValueError("lam must exceed 1")
    if not t.scale > 0.0:
        raise ValueError("scale must be positive")
    if t.parent[t.root] is not None or t.level[t.root] != t.height:
        raise ValueError("root must be parentless at level == height")
    for v in range(n):
        if v != t.root and t.parent[v] is None:
            raise ValueError(f"second root at node {v}")
        for c in t.children[v]:
            if t.parent[c] != v:
                raise ValueError(f"parent/children disagree at edge ({v}, {c})")
            if t.level[c] != t.level[v] - 1:
                raise ValueError(f"level gap at edge ({v}, {c})")
        if t.children[v]:
            kinds = {bool(t.children[c]) for c in t.children[v]}
            if len(kinds) > 1:
                raise ValueError(f"node {v} mixes leaf and internal children")
    for v in range(n):
        if t.is_leaf(v) != (t.level[v] == 0):
            raise ValueError(f"node {v}: leaves must sit exactly at level 0")
    leaves = set(t.leaves)
    if set(t.leaf_point) != leaves:
        raise ValueError("leaf_point keys must be exactly the leaves")
    if len(t.servers) != n:
        raise ValueError("servers must hold one count per node")
    for pt, leaf in t.point_leaf.items():
        if leaf not in leaves:
            raise ValueError(f"point {pt} mapped to non-leaf {leaf}")
    for v in range(n):
        if t.servers[v] < 0:
            raise ValueError(f"negative server count at node {v}")
        if t.children[v] and t.servers[v] != sum(t.servers[c] for c in t.children[v]):
            raise ValueError(f"node {v}'s server count is not the sum of its children's")


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


def reference_request_triangle(inst: Instance, images):
    """The first failing request triangle as (i, j, k) with dist[i][j] > dist[i][k] + dist[k][j], or None.

    One Python loop over the requests in order and the distinct server points
    ascending, first d(r, s) <= d(r, g) + d(g, s), then d(g, s) <= d(g, r) + d(r, s),
    each with slack TRIANGLE_SLACK times the largest entry.
    """
    d = inst.metric.dist.tolist()
    tol = TRIANGLE_SLACK * max(map(max, d))
    for r, g in zip(inst.requests, images):
        for s in sorted(set(inst.servers)):
            if d[r][s] - (d[r][g] + d[g][s]) > tol:
                return (r, s, g)
            if d[g][s] - (d[g][r] + d[r][s]) > tol:
                return (g, s, r)
    return None


@lru_cache(maxsize=None)
def _harmonic_positive(m: int) -> float:
    return math.fsum(1.0 / k for k in range(1, m + 1))


def harmonic(m: int) -> float:
    """m-th harmonic number 1 + 1/2 + ... + 1/m, with value 0 for m <= 0."""
    if m <= 0:
        return 0.0
    return _harmonic_positive(int(m))


def uniform_bound(q: int, delta: int) -> float:
    """Expected-cost envelope H_q + H_{q-1} + ... + H_{q-delta+1}.

    Bounds the mean number of cross-leaf moves on a height-1 tree holding q
    servers when delta requests arrive at server-free leaves.
    """
    if delta < 0 or delta > q:
        raise ValueError(f"delta must satisfy 0 <= delta <= q, got q={q}, delta={delta}")
    return math.fsum(harmonic(q - j) for j in range(delta))


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


def reference_frt_embed(metric: FiniteMetric, params: EmbeddingParams, servers) -> HstTree:
    """The embedding built cluster by cluster, the slow oracle for ``frt_embed``.

    Zero-distance classes come from a greedy scan, each level splits every
    cluster by its members' first covering centers, singleton clusters stop
    as shallow leaves, ``normalize_hst`` extends them with dummy chains and
    numbers the nodes breadth-first, and the server counts are added up
    each server's path to the root.
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
    return attach(dataclasses.replace(t, point_leaf=point_leaf), servers)


class ReferenceRwgmState:
    """Tree matcher state drawing through ``Generator.integers``, the oracle for ``RwgmState``."""

    __slots__ = ("tree", "remaining", "subtree_remaining", "green", "rng", "policy")

    def __init__(self, tree: HstTree, rng: np.random.Generator, policy: str) -> None:
        n = tree.n_nodes
        self.tree = tree
        self.remaining = [tree.servers[v] if tree.is_leaf(v) else 0 for v in range(n)]
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


def greedy_serve(inst: Instance, remaining: dict, r: int):
    """Assign r to the nearest still-unused server instance; consume it. The oracle for ``run_greedy``.

    ``remaining`` maps server point to unused count and is updated in place.
    Ties go to the lowest point index, so the run is deterministic.
    """
    dist = inst.metric.dist
    best = -1
    best_d = float("inf")
    for s in sorted(remaining):
        if remaining[s] <= 0:
            continue
        d = dist[r, s]
        if d < best_d:
            best, best_d = s, d
    if best < 0:
        raise RuntimeError("all servers have been assigned")
    remaining[best] -= 1
    return best, float(best_d)


def reference_greedy(inst: Instance) -> list:
    """Every decision of the greedy run, one dict scan per request."""
    remaining = dict(Counter(inst.servers))
    return [(r, *greedy_serve(inst, remaining, r)) for r in inst.requests]


def recompute_green(state: RwgmState) -> list:
    """Green flags rebuilt from scratch out of the leaves' unassigned-server counts."""
    t = state.tree
    green = [False] * t.n_nodes
    for v in range(t.n_nodes - 1, -1, -1):
        if t.is_leaf(v):
            green[v] = state.subtree_remaining[v] > 0
        else:
            green[v] = any(green[c] for c in t.children[v])
    return green


def height1_tree(n_leaves: int, lam: float = 3.0, scale: float = 1.0) -> HstTree:
    parent = [None] + [0] * n_leaves
    level = [1] + [0] * n_leaves
    leaf_point = {i + 1: i for i in range(n_leaves)}
    return normalize_hst(RawTree(parent, level, leaf_point, lam=lam, scale=scale))


def subtree_server_counts(t: HstTree, mult_by_point: dict) -> tuple:
    """Servers below every node, each point's multiplicity added along its leaf's path to the root."""
    sums = [0] * t.n_nodes
    for p, m in mult_by_point.items():
        v = t.point_leaf[p]
        while v is not None:
            sums[v] += m
            v = t.parent[v]
    return tuple(sums)


def with_multiplicity(t: HstTree, mult_by_point: dict) -> HstTree:
    """Attach server counts given per-point (not per-leaf) multiplicities."""
    return dataclasses.replace(t, servers=subtree_server_counts(t, mult_by_point))


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


def attach(t: HstTree, servers) -> HstTree:
    """The tree with the server multiset's counts filled in."""
    return with_multiplicity(t, Counter(servers))


def leaf_counts(t: HstTree, points) -> dict:
    """Tally a multiset of tree point indices by the leaf that hosts each point."""
    counts = dict.fromkeys(t.leaves, 0)
    for p in points:
        leaf = t.point_leaf.get(p)
        if leaf is None:
            raise ValueError(f"point {p} does not appear among the tree leaves")
        counts[leaf] += 1
    return counts


def random_tree_instance(rng, height: int, n: int, lam: float, scale: float = 1.0):
    """A random tree plus a random balanced instance living on its leaves."""
    t = random_tree(rng, height, lam, scale)
    n_leaves = len(t.leaves)
    probs = [1.0 / n_leaves] * n_leaves
    servers = [p for p, c in enumerate(rng.multinomial(n, probs)) for _ in range(c)]
    requests = [p for p, c in enumerate(rng.multinomial(n, probs)) for _ in range(c)]
    requests = [requests[i] for i in rng.permutation(n)]
    inst = Instance(metric=tree_metric(t), servers=tuple(servers), requests=tuple(requests))
    return attach(t, inst.servers), inst


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


def left_to_right_total(costs) -> float:
    """The costs added one at a time from 0.0: the oracle for the record's totals.

    Not ``sum()``: from Python 3.12 it compensates float rounding.
    """
    total = 0.0
    for cost in costs:
        total += cost
    return total


def record_decisions(record) -> list:
    """A run record's rows as per-episode lists of (request, server, cost) tuples of Python numbers."""
    requests = record.requests.tolist()
    return [list(zip(requests, s, c)) for s, c in zip(record.served.tolist(), record.costs.tolist())]


def reference_trace_csv(record) -> str:
    """Every row of a run record's trace formatted on its own: the oracle for ``trace_csv``."""
    rows = [
        f"{e},{step},{r},{s},{cost!r}\n"
        for e, decisions in enumerate(record_decisions(record))
        for step, (r, s, cost) in enumerate(decisions)
    ]
    return "episode,step,request_point,server_point,cost\n" + "".join(rows)


def check_trace(document: dict, trace: str, opt: float, episodes: int) -> None:
    """Check the trace of a ``hstmatch run -o`` on an instance document, from the document alone.

    Every episode serves the requests in request order with a perfect matching
    of the server multiset; every cost is ``dist[r][s]`` to the bit, signed
    zeros included (the trace writes ``repr``); no episode's left-to-right
    total is below ``opt`` by more than a relative 1e-9.
    """
    dist, servers, requests = document["dist"], document["servers"], document["requests"]
    lines = trace.split("\n")
    assert lines[0] == "episode,step,request_point,server_point,cost" and lines[-1] == "", trace
    rows = [line.split(",") for line in lines[1:-1]]
    m = len(requests)
    assert len(rows) == episodes * m, (len(rows), episodes, m)
    for e in range(episodes):
        episode = rows[e * m:(e + 1) * m]
        assert [tuple(map(int, row[:3])) for row in episode] == [(e, j, r) for j, r in enumerate(requests)]
        served = [int(row[3]) for row in episode]
        assert Counter(served) == Counter(servers), (e, served)
        costs = [row[4] for row in episode]
        assert costs == [repr(float(dist[r][s])) for r, s in zip(requests, served)], (e, costs)
        total = left_to_right_total(map(float, costs))
        assert total >= opt - 1e-9 * abs(opt), (e, total, opt)
