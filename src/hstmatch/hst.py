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

Construction: the part of a draw that depends only on the metric (the
classes of points at distance zero, the distances between class
representatives in units of d_min, and the log of the diameter) is computed
on the first embedding of a metric object and cached on it. A draw then
builds the tree top-down in one vectorized pass per level: every class joins
the first center in permutation order within the level's radius, and the
level's nodes are the distinct (parent node, center) pairs in sorted order.
Nodes therefore come out numbered breadth-first with every leaf at level 0,
a class that is split off early continuing as a chain of single-child nodes.
A draw whose node bound height * k + 1 over k classes exceeds
MAX_TREE_NODES, or whose distances would overflow a float, is refused.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .metric import FiniteMetric, Instance, ensure_valid_metric

__all__ = [
    "MAX_TREE_NODES",
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

# Upper bound on the nodes of one embedded tree. A draw over k classes of
# points has at most height * k + 1 nodes; a draw whose bound exceeds the
# budget is refused before any node is built.
MAX_TREE_NODES = 1 << 20

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
    of its representative in that list: each point joins the first
    representative at distance zero, and a point with none becomes one. The
    triangle slack can make distance zero non-transitive (d(a, b) = d(b, c) = 0
    while d(a, c) is tiny and positive), so a class is what its first point
    claims: a new representative takes every unclaimed point at distance zero
    from it, one row operation per class (the matrix is symmetric).
    """
    reps: list = []
    rep_of = np.full(dist.shape[0], -1)
    for i in range(dist.shape[0]):
        if rep_of[i] < 0:
            rep_of[(rep_of < 0) & (dist[i] == 0.0)] = len(reps)
            reps.append(i)
    return reps, rep_of.tolist()


class _Classes(NamedTuple):
    """The seed-independent part of an embedding, computed once per metric object."""

    reps: list  # first point of each zero-distance class, ascending
    rep_of: list  # class index of every point
    dn: np.ndarray  # distances between representatives, in units of d_min
    d_min: float | None  # smallest positive distance; None for a single class
    log_diameter: float  # log of dn's largest entry; 0 for a single class


def _metric_classes(metric: FiniteMetric) -> _Classes:
    """Zero-distance classes and normalized distances, cached on the metric."""
    cached = getattr(metric, "_classes", None)
    if cached is not None:
        return cached
    reps, rep_of = _zero_distance_classes(metric.dist)
    if len(reps) == 1:
        dn, d_min, diameter = np.zeros((1, 1)), None, 1.0
    else:
        d = metric.dist[np.ix_(reps, reps)]
        d_min = float(d[d > 0.0].min())
        diameter = float(d.max()) / d_min
        if not math.isfinite(diameter):
            raise ValueError(
                f"distance spread {float(d.max())!r} / {d_min!r} exceeds the floating-point range"
            )
        dn = d / d_min
    dn.flags.writeable = False
    cached = _Classes(reps, rep_of, dn, d_min, math.log(diameter))
    object.__setattr__(metric, "_classes", cached)
    return cached


def _check_budget(height: int, k: int, lam: float, scale: float) -> None:
    """Refuse a draw whose tree could exceed MAX_TREE_NODES or overflow a float."""
    if height * k + 1 > MAX_TREE_NODES:
        raise ValueError(
            f"a tree of height {height} over {k} points may need {height * k + 1} nodes,"
            f" above MAX_TREE_NODES = {MAX_TREE_NODES}; raise lam"
        )
    # Upper bound on the log of the root-level distance scale * 2 * (lam**height - 1) / (lam - 1);
    # the radii and the unscaled level sums stay below it too.
    log_top = height * math.log(lam) + math.log(2.0 / (lam - 1.0)) + max(0.0, math.log(scale))
    if log_top >= _LOG_FLOAT_MAX:
        raise ValueError(
            f"a tree of height {height} at lam={lam} and scale {scale!r} exceeds the floating-point range"
        )


def frt_embed(metric: FiniteMetric, params: EmbeddingParams) -> HstTree:
    """Sample one random tree over the metric's points.

    Deterministic in (metric, lam, seed). Points at distance zero share a
    leaf; all other points get their own leaf. See the module docstring for
    the construction and its guarantees.
    """
    ensure_valid_metric(metric)
    lam = float(params.lam)
    if len(metric) == 0:
        raise ValueError("cannot embed an empty metric")
    c = _metric_classes(metric)
    k = len(c.reps)
    height = math.ceil(c.log_diameter / math.log(lam)) + 1 if c.log_diameter > 0.0 else 1
    scale = lam * c.d_min if k > 1 else 1.0
    _check_budget(height, k, lam, scale)

    rng = np.random.default_rng(params.seed)
    beta = lam ** rng.random()  # density proportional to 1/beta on [1, lam)
    dp = c.dn[rng.permutation(k)]  # row r holds distances from the r-th center in permutation order

    # One pass per level. A class joins the first center in permutation order
    # that covers it, whatever its cluster, so the children of every cluster
    # come out of one argmax over all classes; sorting them by (parent,
    # center) numbers the nodes breadth-first.
    parent: list = [None]
    level: list = [height]
    node = np.zeros(k, dtype=np.intp)  # each class's node at the level just built
    for lv in range(height - 1, -1, -1):
        first = len(parent)
        winner = (dp <= beta * lam ** (lv - 1)).argmax(axis=0)
        keys, node = np.unique(node * k + winner, return_inverse=True)
        parent.extend((keys // k).tolist())
        level.extend([lv] * len(keys))
        node += first
    if len(keys) < k:  # radius beta/lam < 1 forces singletons at level 0
        raise AssertionError("partition did not reach singletons")

    children: list = [[] for _ in parent]
    for v in range(1, len(parent)):
        children[parent[v]].append(v)
    leaves = node.tolist()
    return HstTree(
        lam=lam,
        scale=scale,
        height=height,
        parent=tuple(parent),
        children=tuple(map(tuple, children)),
        level=tuple(level),
        leaf_point=dict(zip(leaves, c.reps)),
        point_leaf={p: leaves[ci] for p, ci in enumerate(c.rep_of)},
        leaf_multiplicity=dict.fromkeys(leaves, 0),
    )


def attach_servers(t: HstTree, inst: Instance, mapping: dict | None = None) -> HstTree:
    """Return a copy of the tree with server multiplicities filled in.

    ``mapping`` translates instance point indices to the tree's point
    indices (as produced by submetric extraction); omit it when the tree was
    built directly on the instance's metric.
    """
    return replace(t, leaf_multiplicity=leaf_counts(t, inst.servers, mapping))


def leaf_counts(t: HstTree, points, mapping: dict | None = None) -> dict:
    """Tally a multiset of point indices by the leaf that hosts each point."""
    counts = dict.fromkeys(t.leaf_multiplicity, 0)  # its keys are exactly the leaves
    for p, m in Counter(points).items():  # first-occurrence order, so the first bad point is named
        q = p if mapping is None else mapping[p]
        leaf = t.point_leaf.get(q)
        if leaf is None:
            raise ValueError(f"point {p} does not appear among the tree leaves")
        counts[leaf] += m
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
