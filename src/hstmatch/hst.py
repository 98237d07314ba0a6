"""Level-weighted separated trees and the random embedding of a finite metric.

Trees have their leaves at level 0 and the root at level ``height``. Every
edge between level i-1 and level i carries weight lam**(i-1) in tree units,
so leaf edges weigh one and weights grow by the factor lam toward the root.
``scale`` converts tree units into the source metric's units.

The embedding samples a random hierarchical ball partition of the point set
(a uniformly random permutation of centers plus a radius jitter drawn with
density proportional to 1/beta) and reads the partition off as a tree. Two
properties drive everything downstream:

* domination: for every seed and every pair, the tree distance is at least
  the source distance;
* low expected stretch: averaged over seeds, tree distances exceed source
  distances by an O(lam * ln n / ln lam) factor.

With radius beta * lam**(level-1) * d_min and scale = lam * d_min, a pair
joined at level L sits within a ball of diameter 2*beta*lam**(L-1)*d_min,
strictly below its tree distance 2*lam*d_min*(lam**L - 1)/(lam - 1), so
domination holds deterministically. The smallest tree edge then measures
lam * d_min in metric units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .metric import FiniteMetric, Instance, ensure_valid_metric

__all__ = [
    "lambda_for_n",
    "EmbeddingParams",
    "HstTree",
    "RawTree",
    "tree_distance",
    "normalize_hst",
    "validate_hst",
    "frt_embed",
    "attach_servers",
    "leaf_counts",
    "tree_to_dict",
]


def lambda_for_n(n: int) -> float:
    """Default separation parameter for an n-server game: 2 * (1 + ln n)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return 2.0 * (1.0 + math.log(n))


@dataclass(frozen=True)
class EmbeddingParams:
    """Knobs of one embedding draw. ``n`` records the game size for reports."""

    lam: float
    seed: int
    n: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 1.0):
            raise ValueError(f"lam must be finite and exceed 1, got {self.lam}")


@dataclass(frozen=True, eq=False)
class HstTree:
    """Immutable rooted tree with geometric level weights.

    Nodes are integers in breadth-first order, the root is node 0 and every
    parent index is smaller than its children's. ``leaf_point`` maps a leaf
    to the representative source point it carries; ``point_leaf`` maps every
    source point (including points at distance zero from a representative)
    to its leaf. ``leaf_multiplicity`` holds attached server counts.
    """

    lam: float
    scale: float
    height: int
    parent: tuple
    children: tuple
    level: tuple
    leaf_point: dict
    point_leaf: dict
    leaf_multiplicity: dict

    root: int = 0

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def leaves(self) -> tuple:
        return tuple(v for v in range(self.n_nodes) if not self.children[v])

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def total_multiplicity(self) -> int:
        return sum(self.leaf_multiplicity.values())

    @cached_property
    def level_distance(self) -> tuple:
        """Metric-unit distance between two leaves whose paths meet at level L, indexed by L.

        Entry L is scale * 2 * sum_{i=1..L} lam**(i-1); every leaf distance
        in the package is read from this table.
        """
        out = [0.0]
        total = 0.0
        for i in range(1, self.height + 1):
            total += 2.0 * self.lam ** (i - 1)
            out.append(self.scale * total)
        return tuple(out)


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
        leaf_multiplicity={new_id[old]: 0 for old in leaf_point},
    )


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
    if set(t.leaf_multiplicity) != leaves:
        raise ValueError("leaf_multiplicity keys must be exactly the leaves")
    for pt, leaf in t.point_leaf.items():
        if leaf not in leaves:
            raise ValueError(f"point {pt} mapped to non-leaf {leaf}")
    for leaf, m in t.leaf_multiplicity.items():
        if m < 0:
            raise ValueError(f"negative multiplicity at leaf {leaf}")


def _zero_distance_classes(dist: np.ndarray) -> tuple[list, list]:
    """Group points into classes of pairwise distance zero.

    Returns the sorted class representatives and, for every point, the index
    of its representative in that list. Distance zero is transitive in a
    metric, so greedy assignment to the first matching representative works.
    """
    n = dist.shape[0]
    reps: list = []
    rep_of = [0] * n
    for i in range(n):
        for ri, r in enumerate(reps):
            if dist[i, r] == 0.0:
                rep_of[i] = ri
                break
        else:
            rep_of[i] = len(reps)
            reps.append(i)
    return reps, rep_of


def frt_embed(metric: FiniteMetric, params: EmbeddingParams) -> HstTree:
    """Sample one random tree over the metric's points.

    Deterministic in (metric, lam, seed). Points at distance zero share a
    leaf; all other points get their own leaf. See the module docstring for
    the construction and its guarantees.
    """
    ensure_valid_metric(metric)
    lam = float(params.lam)
    npts = len(metric)
    if npts == 0:
        raise ValueError("cannot embed an empty metric")
    reps, rep_of = _zero_distance_classes(metric.dist)
    k = len(reps)

    if k == 1:
        raw = RawTree(parent=[None], level=[0], leaf_point={0: reps[0]}, lam=lam)
    else:
        rng = np.random.default_rng(params.seed)
        beta = lam ** rng.random()  # density proportional to 1/beta on [1, lam)
        perm = rng.permutation(k)

        d = metric.dist[np.ix_(reps, reps)]
        d_min = float(d[d > 0.0].min())
        dn = d / d_min
        diameter = float(dn.max())
        height = max(1, math.ceil(math.log(diameter) / math.log(lam)) + 1) if diameter > 1.0 else 1

        dp = dn[perm]  # row r holds distances from the r-th center in permutation order
        parent: list = [None]
        level: list = [height]
        leaf_point: dict = {}
        clusters = [(0, np.arange(k))]
        for lv in range(height - 1, -1, -1):
            radius = beta * lam ** (lv - 1)
            nxt = []
            for node, members in clusters:
                covered = dp[:, members] <= radius
                winner = covered.argmax(axis=0)  # first covering center wins
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
        if clusters:  # radius beta/lam < 1 forces singletons at level 0
            raise AssertionError("partition did not reach singletons")

        raw = RawTree(parent=parent, level=level, leaf_point=leaf_point, lam=lam, scale=lam * d_min)
    t = normalize_hst(raw)
    rep_leaf = {pt: leaf for leaf, pt in t.leaf_point.items()}
    point_leaf = {p: rep_leaf[reps[rep_of[p]]] for p in range(npts)}
    return replace(t, point_leaf=point_leaf)


def attach_servers(t: HstTree, inst: Instance, mapping: dict | None = None) -> HstTree:
    """Return a copy of the tree with server multiplicities filled in.

    ``mapping`` translates instance point indices to the tree's point
    indices (as produced by submetric extraction); omit it when the tree was
    built directly on the instance's metric.
    """
    return replace(t, leaf_multiplicity=leaf_counts(t, inst.servers, mapping))


def leaf_counts(t: HstTree, points, mapping: dict | None = None) -> dict:
    """Tally a multiset of point indices by the leaf that hosts each point."""
    counts = {leaf: 0 for leaf in t.leaves}
    for p in points:
        q = p if mapping is None else mapping[p]
        leaf = t.point_leaf.get(q)
        if leaf is None:
            raise ValueError(f"point {p} does not appear among the tree leaves")
        counts[leaf] += 1
    return counts


def tree_to_dict(t: HstTree) -> dict:
    """JSON-friendly dump used by the CLI's --dump-tree."""
    nodes = []
    for v in range(t.n_nodes):
        nodes.append(
            {
                "id": v,
                "parent": t.parent[v],
                "level": t.level[v],
                "leaf_point": t.leaf_point.get(v),
                "multiplicity": t.leaf_multiplicity.get(v) if t.is_leaf(v) else None,
            }
        )
    return {"lambda": t.lam, "scale": t.scale, "height": t.height, "nodes": nodes}
