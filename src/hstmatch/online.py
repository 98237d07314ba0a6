"""Online players: the randomized tree matcher, discretization, and greedy.

The tree matcher serves a request by climbing from the request leaf to the
lowest ancestor whose subtree still holds an unassigned server (a "green"
node), then walking back down, choosing uniformly among green children at
every level. Descent can instead be weighted by the number of unassigned
servers per child subtree ("proportional" policy); that variant is offered
for comparison only and carries no bound claims.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hst import HstTree
from .metric import Instance

__all__ = [
    "POLICIES",
    "MatchingTrace",
    "RwgmState",
    "rwgm_init",
    "rwgm_serve",
    "pick_a_leaf",
    "discretize_all",
    "greedy_serve",
    "run_greedy",
]

POLICIES = ("uniform", "proportional")


@dataclass
class MatchingTrace:
    """Per-request decisions of one episode: (request point, server point, cost)."""

    algorithm: str
    seed: int | None
    decisions: list = field(default_factory=list)
    total_cost: float = 0.0

    def append(self, request: int, server: int, cost: float) -> None:
        self.decisions.append((request, server, cost))
        self.total_cost += cost


class RwgmState:
    """Mutable single-episode state for the tree matcher.

    ``remaining`` counts unassigned servers per leaf, ``subtree_remaining``
    aggregates them per node, and ``green`` flags nodes whose subtree still
    holds one. One state serves one request sequence; episodes that run
    concurrently need their own states and random streams.
    """

    __slots__ = ("tree", "remaining", "subtree_remaining", "green", "rng", "policy")

    def __init__(self, tree: HstTree, rng: np.random.Generator, policy: str) -> None:
        n = tree.n_nodes
        self.tree = tree
        self.remaining = [0] * n
        for leaf, m in tree.leaf_multiplicity.items():
            self.remaining[leaf] = int(m)
        counts = list(self.remaining)
        for v in range(n - 1, 0, -1):  # breadth-first numbering: parents precede children
            counts[tree.parent[v]] += counts[v]
        self.subtree_remaining = counts
        self.green = [c > 0 for c in counts]
        self.rng = rng
        self.policy = policy


def rwgm_init(tree: HstTree, seed, policy: str = "uniform") -> RwgmState:
    """Fresh episode state. ``seed`` may be an int or a numpy Generator."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    state = RwgmState(tree, rng, policy)
    if state.subtree_remaining[tree.root] <= 0:
        raise ValueError("tree carries no servers")
    return state


def pick_a_leaf(state: RwgmState, u: int) -> int:
    """Descend from a green node to a leaf with an unassigned server.

    Draws one integer from the episode stream per descent level. Under the
    uniform policy each green child is equally likely regardless of how many
    servers its subtree holds; under the proportional policy children are
    weighted by their unassigned-server counts.
    """
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


def rwgm_serve(state: RwgmState, request_leaf: int):
    """Serve one request at a leaf; return (server leaf, metric-unit cost).

    The chosen leaf's multiplicity drops by one and green flags along its
    root path are refreshed. Raises when the request is not a leaf of the
    tree or when every server has been assigned. The lowest green ancestor
    the climb stops at is the meet of the request and the chosen leaf, since
    descent only enters green children, so its level gives the cost.
    """
    tree = state.tree
    if not 0 <= request_leaf < tree.n_nodes or tree.children[request_leaf]:
        raise ValueError(f"request node {request_leaf} is not a leaf of the tree")
    v = request_leaf
    while v is not None and not state.green[v]:
        v = tree.parent[v]
    if v is None:
        raise RuntimeError("all servers have been assigned")
    chosen = pick_a_leaf(state, v)
    state.remaining[chosen] -= 1
    w = chosen
    while w is not None:
        state.subtree_remaining[w] -= 1
        if state.subtree_remaining[w] == 0:
            state.green[w] = False
        w = tree.parent[w]
    return chosen, tree.level_distance[tree.level[v]]


def discretize_all(inst: Instance) -> tuple:
    """Nearest distinct server point of every request, in request order.

    ``argmin`` returns the first minimum over the sorted server points, so
    ties go to the lowest point index.
    """
    pts = np.array(sorted(set(inst.servers)))
    nearest = inst.metric.dist[np.ix_(inst.requests, pts)].argmin(axis=1)
    return tuple(pts[nearest].tolist())


def greedy_serve(inst: Instance, remaining: dict, r: int):
    """Assign r to the nearest still-unused server instance; consume it.

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


def run_greedy(inst: Instance) -> MatchingTrace:
    """Play the whole request sequence greedily on the original metric."""
    remaining: dict = {}
    for s in inst.servers:
        remaining[s] = remaining.get(s, 0) + 1
    trace = MatchingTrace(algorithm="greedy", seed=None)
    for r in inst.requests:
        server, cost = greedy_serve(inst, remaining, r)
        trace.append(r, server, cost)
    return trace
