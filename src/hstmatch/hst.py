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

Construction: ``count_servers`` computes the part of a draw that depends
only on the metric and the servers (the classes of points at distance zero,
the distances between class representatives in units of d_min, the
diameter in those units, and the servers counted per class) once for all
draws over them. A draw then finds every class's center at every level: a
class joins the first center in permutation order within the level's radius.
Only a radius from 1 up to the diameter takes a vectorized pass: the leaf
level's radius beta/lam is below every distance between two classes, all at
least 1, so each class centers itself, and a radius that reaches the
diameter gives everyone the first center in permutation order. One sort of
the classes by their centers, level by level from the top, then reads off
the whole tree: a class's node at a level is its sequence of centers down to
that level, so each level's nodes are the runs of equal prefixes in sorted
order. Nodes therefore come out numbered breadth-first, which is
``HstTree``'s one layout: every node's children are one id range,
the leaves are the last ids, all at level 0, and a class that is split off
early continues as a chain of single-child nodes. One count weighted by the
classes' servers gives every node's server count. A draw whose node bound
height * k + 1 over k classes exceeds MAX_TREE_NODES, or whose distances
would overflow a float, is refused.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .metric import FiniteMetric, _checked_points, _checked_seed, _is_finite_real, _is_int

__all__ = [
    "MAX_TREE_NODES",
    "lambda_for_n",
    "EmbeddingParams",
    "HstTree",
    "ServerCounts",
    "count_servers",
    "frt_embed",
    "attach_servers",
    "tree_to_dict",
]

# Upper bound on the nodes of one embedded tree. A draw over k classes of
# points has at most height * k + 1 nodes; a draw whose bound exceeds the
# budget is refused before any node is built.
MAX_TREE_NODES = 1 << 20

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def lambda_for_n(n: int) -> float:
    """Default separation parameter for an n-server game: 2 * (1 + ln n)."""
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return 2.0 * (1.0 + math.log(n))


@dataclass(frozen=True)
class EmbeddingParams:
    """Knobs of one embedding draw: ``seed`` is a non-negative integer, which seeds the draw's PCG64 stream,
    or that PCG64 itself, which the draw advances."""

    lam: float
    seed: int | np.random.PCG64

    def __post_init__(self) -> None:
        if not (_is_finite_real(self.lam) and self.lam > 1.0):
            raise ValueError(f"lam must be finite and exceed 1, got {self.lam!r}")
        if not isinstance(self.seed, np.random.PCG64):
            _checked_seed(self.seed)


@dataclass(frozen=True, eq=False)
class HstTree:
    """Immutable rooted tree with geometric level weights, its nodes numbered breadth-first.

    ``parent`` and ``servers`` are tuples indexed by node; the root is 0. Node
    v's children are ``range(child_bounds[v], child_bounds[v + 1])``, the nodes
    of level ``height - i`` are ``range(level_bounds[i], level_bounds[i + 1])``,
    and the leaves, all at level 0, are the last ids, ``range(first_leaf, n_nodes)``.
    ``leaf_point[i]`` is the source point on leaf ``first_leaf + i``, and
    ``point_leaf[p]`` is the leaf of source point p (points at distance zero
    share one). ``servers[v]`` counts the servers in node v's subtree.
    """

    lam: float
    scale: float
    height: int
    parent: tuple
    child_bounds: tuple
    level_bounds: tuple
    leaf_point: tuple
    point_leaf: tuple
    servers: tuple

    root = 0  # not a field: breadth-first numbering always puts the root first

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def first_leaf(self) -> int:
        return len(self.parent) - len(self.leaf_point)

    @property
    def leaves(self) -> range:
        return range(self.first_leaf, len(self.parent))

    @cached_property
    def children(self) -> tuple:
        """``children[v]`` is the range of v's child ids; built on first read, as serving reads the bounds."""
        b = self.child_bounds
        return tuple(map(range, b[:-1], b[1:]))

    @cached_property
    def level(self) -> tuple:
        """Every node's level, indexed by node; built on first read."""
        b = self.level_bounds
        return tuple(self.height - i for i in range(self.height + 1) for _ in range(b[i], b[i + 1]))

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


def _zero_distance_classes(dist: np.ndarray) -> tuple[list, np.ndarray]:
    """Group points into classes of pairwise distance zero.

    Returns the sorted class representatives and, for every point, the index
    of its representative in that list: each point joins the first
    representative at distance zero, and a point with none becomes one. The
    triangle slack can make distance zero non-transitive (d(a, b) = d(b, c) = 0
    while d(a, c) is tiny and positive), so a class is what its first point
    claims: a new representative takes every unclaimed point at distance zero
    from it, one row operation per class (a FiniteMetric is symmetric). Only rows
    with an off-diagonal zero can claim or be claimed, so only they are
    scanned; every other point is its own class.
    """
    points = np.arange(dist.shape[0])
    rep = points.copy()  # each point's representative
    claimed = np.zeros(dist.shape[0], dtype=bool)
    for i in np.flatnonzero(np.count_nonzero(dist == 0.0, axis=1) > 1).tolist():
        if not claimed[i]:
            grab = ~claimed & (dist[i] == 0.0)
            rep[grab] = i
            claimed |= grab
    is_rep = rep == points
    return np.flatnonzero(is_rep).tolist(), (np.cumsum(is_rep, dtype=np.intp) - 1)[rep]


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


class ServerCounts(NamedTuple):
    """A metric's zero-distance classes and its servers counted per class: what a draw reads besides its seed."""

    reps: list  # first point of each zero-distance class, ascending
    rep_of: np.ndarray  # class index of every point
    dn: np.ndarray  # distances between representatives, in units of d_min
    d_min: float | None  # smallest positive distance; None for a single class
    diameter: float  # dn's largest entry; 0 for a single class
    per_class: np.ndarray  # servers in each class


def count_servers(metric: FiniteMetric, servers) -> ServerCounts:
    """Class a metric's points and count its servers, a multiset of point indices, per class; refuse other entries."""
    if len(metric) == 0:
        raise ValueError("cannot embed an empty metric")
    idx = np.array(_checked_points("servers", servers, len(metric)), dtype=np.intp)
    reps, rep_of = _zero_distance_classes(metric.dist)
    if len(reps) == 1:
        dn, d_min, diameter = np.zeros((1, 1)), None, 0.0
    else:
        d = metric.dist if len(reps) == len(metric) else metric.dist[np.ix_(reps, reps)]
        top = metric.diameter if d is metric.dist else float(d.max())
        d_min = float(d[d > 0.0].min())
        diameter = top / d_min  # dn's largest entry: a division by d_min keeps the order of the entries
        if not math.isfinite(diameter):
            raise ValueError(f"distance spread {top!r} / {d_min!r} exceeds the floating-point range")
        dn = d / d_min
    dn.flags.writeable = False  # every draw over the counts shares it
    per_class = np.bincount(rep_of[idx], minlength=len(reps))
    return ServerCounts(reps, rep_of, dn, d_min, diameter, per_class)


def frt_embed(counts: ServerCounts, params: EmbeddingParams) -> HstTree:
    """Sample one random tree over a metric's points, with the servers below every node.

    ``counts`` is ``count_servers(metric, servers)``, which every draw over
    the same metric and servers shares, or the same with fewer servers per
    class (``harness.PipelineSetup.rest``); the tree is deterministic in
    (metric, lam, seed), or in the state of a PCG64 passed as the seed, and
    the servers set only its counts. Points at distance zero share a leaf;
    all other points get their own leaf.
    """
    lam = float(params.lam)
    k = len(counts.reps)
    w = counts.per_class
    height = math.ceil(math.log(counts.diameter) / math.log(lam)) + 1 if counts.diameter > 1.0 else 1
    scale = lam * counts.d_min if k > 1 else 1.0
    _check_budget(height, k, lam, scale)

    rng = np.random.default_rng(params.seed)
    beta = lam ** rng.random()  # density proportional to 1/beta on [1, lam)
    perm = rng.permutation(k)
    # One pass per level whose radius lies from 1 up to dn's largest entry (see
    # the module docstring). Row i of ``centers`` holds every class's center, as
    # a permutation position, at level height - 1 - i; row c of ``dp`` holds class
    # c's distances to the centers in permutation order (dn is symmetric, as every
    # FiniteMetric is), so each argmax runs along contiguous rows. A class's node
    # at a level is its column of centers down to that level, so one sort of the
    # columns puts every node's classes together, and a node starts wherever a
    # column first differs from its left neighbour at or above the level.
    centers = np.zeros((height, k), dtype=np.intp)  # a radius that covers dn leaves a row at 0
    dp = None
    for i in range(height):
        radius = beta * lam ** (height - 2 - i)
        if radius < 1.0:  # each class its own center
            centers[i, perm] = np.arange(k)
        elif radius < counts.diameter:
            dp = counts.dn.take(perm, axis=1) if dp is None else dp
            np.argmax(dp <= radius, axis=1, out=centers[i])
    order = np.lexsort(centers[::-1])
    centers = centers[:, order]
    starts = np.ones((height, k), dtype=bool)
    np.not_equal(centers[:, 1:], centers[:, :-1], out=starts[:, 1:])
    np.logical_or.accumulate(starts, axis=0, out=starts)
    if not starts[-1].all():  # radius beta/lam < 1 forces singletons at level 0
        raise AssertionError("partition did not reach singletons")

    # Row-major numbering is breadth-first, with the leaves last in sorted class order:
    # the node that starts at row i, column s has parent ids[i - 1, s] (the root above
    # row 0) and first child ids[i + 1, s], and its children end where the next node's start.
    ids = starts.cumsum().reshape(height, k)
    n_nodes = int(ids[-1, -1]) + 1
    below = np.bincount(ids.ravel(), weights=w[order][None].repeat(height, 0).ravel(), minlength=n_nodes)
    below[0] = w.sum()
    leaf = np.empty(k, dtype=np.intp)  # each class's leaf
    leaf[order] = ids[-1]
    return HstTree(
        lam=lam,
        scale=scale,
        height=height,
        parent=(None, *(0,) * int(ids[0, -1]), *ids[:-1][starts[1:]].tolist()),
        child_bounds=(1, *ids[1:][starts[:-1]].tolist(), *(n_nodes,) * (k + 1)),
        level_bounds=(0, 1, *(ids[:, -1] + 1).tolist()),
        leaf_point=tuple(map(counts.reps.__getitem__, order.tolist())),
        point_leaf=tuple(leaf[counts.rep_of].tolist()),
        servers=tuple(below.astype(np.intp).tolist()),
    )


def attach_servers(t: HstTree, stock) -> list:
    """Each leaf's server instances, highest first, in a list whose entry i is leaf ``t.first_leaf + i``'s.

    ``stock`` maps every class representative on the tree to the server
    instances of its class as a tuple, highest first, as ``pipeline_setup``
    builds it, and the list holds those tuples, not copies. A serve that leaves
    a leaf c unassigned servers takes entry c, so the leaf's count is its only state.
    """
    try:
        return [stock[q] for q in t.leaf_point]
    except KeyError as missing:
        raise ValueError(f"point {missing} has no entry in the server stock") from None


def tree_to_dict(t: HstTree) -> dict:
    """JSON-friendly dump used by the CLI's --dump-tree."""
    nodes = [
        {"id": v, "parent": p, "level": lv, "leaf_point": q, "multiplicity": None if q is None else s}
        for v, (p, lv, q, s) in enumerate(zip(t.parent, t.level, (None,) * t.first_leaf + t.leaf_point, t.servers))
    ]
    return {"lambda": t.lam, "scale": t.scale, "height": t.height, "nodes": nodes}
