"""Adversary instance families and the metrics behind them.

Four families cover the interesting regimes: the star (where greedy pays
2k-1 against an optimum of one), the nested uniform space (server and
request sets sharing all but one point, unshared request first), random
Euclidean point clouds, and random points on a line.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import _CHUNK_ENTRIES, MAX_POINTS, FiniteMetric, Instance, ensure_valid_metric
from .metric import _checked_seed, _is_finite_real, _is_int

__all__ = [
    "FAMILIES",
    "GeneratorSpec",
    "star_metric",
    "uniform_metric",
    "euclidean_metric",
    "line_metric",
    "generate_instance",
]

FAMILIES = ("star", "nested-uniform", "euclidean", "line")

# Largest coordinate count (2n * dim) of a Euclidean instance. The random
# coordinates, one row block of their differences and the sorted gaps each
# hold that many floats, so at this bound they take a few times 32 MiB, well
# under the 512 MiB of the largest distance matrix.
MAX_COORDINATES = MAX_POINTS**2 // 16
# A nonzero coordinate difference at least this large has a normal square, so
# every Euclidean distance is within a few ulps of exact; the triangle
# inequality then holds far inside TRIANGLE_SLACK.
_MIN_SAFE_GAP = 2.0**-511


@dataclass(frozen=True)
class GeneratorSpec:
    """Family name, size, seed, and the per-family knobs that apply."""

    family: str
    n: int
    seed: int
    dim: int = 2
    coord_range: float = 100.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        for name, value in (("n", self.n), ("dim", self.dim)):
            if not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        _checked_seed(self.seed)
        points = 2 * self.n if self.family in ("euclidean", "line") else self.n + 1
        if points > MAX_POINTS:
            raise ValueError(f"{self.family} n={self.n} needs {points} points, above MAX_POINTS = {MAX_POINTS}")
        if self.family == "euclidean" and points * self.dim > MAX_COORDINATES:
            raise ValueError(
                f"euclidean n={self.n} dim={self.dim} needs {points * self.dim} coordinates,"
                f" above MAX_COORDINATES = {MAX_COORDINATES}"
            )
        cr = self.coord_range
        if not (_is_finite_real(cr) and cr > 0):
            raise ValueError(f"coord_range must be finite and positive, got {cr!r}")


# The constructors below build metrics that are valid by construction, so no
# cubic check runs on them; tests/test_metric.py proves it by property test.


def star_metric(k: int) -> FiniteMetric:
    """Center plus k spoke endpoints; spokes weigh one, tips are two apart."""
    if k < 1:
        raise ValueError("star needs at least one spoke")
    d = np.full((k + 1, k + 1), 2.0)
    d[0, :] = 1.0
    d[:, 0] = 1.0
    np.fill_diagonal(d, 0.0)
    labels = ("center",) + tuple(f"leaf{i}" for i in range(1, k + 1))
    return FiniteMetric(points=labels, dist=d)


def uniform_metric(u: int) -> FiniteMetric:
    """All distinct points exactly one apart."""
    if u < 1:
        raise ValueError("need at least one point")
    d = np.ones((u, u)) - np.eye(u)
    return FiniteMetric.from_matrix(d)


def euclidean_metric(coords) -> FiniteMetric:
    """Pairwise Euclidean distances of a (n, dim) coordinate array; any other shape is refused.

    Coordinates so close in some dimension that the square of their
    difference underflows lose the accuracy the construction relies on;
    only then is the metric checked exactly.
    """
    pts = np.asarray(coords, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"euclidean coordinates must be a 2-d (n, dim) array, got shape {pts.shape}")
    n, dim = pts.shape
    d = np.empty((n, n))
    step = max(1, _CHUNK_ENTRIES // max(1, n * dim))
    for lo in range(0, n, step):
        diff = pts[lo : lo + step, None, :] - pts[None, :, :]
        d[lo : lo + step] = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    metric = FiniteMetric.from_matrix(d)
    gaps = np.diff(np.sort(pts, axis=0), axis=0)
    return metric if (gaps[gaps > 0] >= _MIN_SAFE_GAP).all() else ensure_valid_metric(metric)


def line_metric(coords) -> FiniteMetric:
    """Absolute coordinate differences of points on a line, from a 1-d coordinate array."""
    xs = np.asarray(coords, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"line coordinates must be a 1-d array, got shape {xs.shape}")
    d = np.abs(xs[:, None] - xs[None, :])
    labels = tuple(repr(float(x)) for x in xs)
    return FiniteMetric(points=labels, dist=d)


def generate_instance(spec: GeneratorSpec) -> Instance:
    """Build one instance; deterministic in the spec (seed included).

    star:            servers on the k tips, requests = center then the
                     first k-1 tips, so greedy cascades around the star.
    nested-uniform:  uniform space on n+1 points, servers on points 1..n,
                     requests start at the server-free point 0 and then
                     walk the shared points 1..n-1.
    euclidean/line:  2n random points; a random half serves, the other
                     half arrives in random order.
    """
    if spec.family in ("star", "nested-uniform"):
        metric = star_metric(spec.n) if spec.family == "star" else uniform_metric(spec.n + 1)
        return Instance(metric=metric, servers=tuple(range(1, spec.n + 1)), requests=(0,) + tuple(range(1, spec.n)))

    rng = np.random.default_rng(spec.seed)
    if spec.family == "euclidean":
        coords = rng.random((2 * spec.n, spec.dim))
        metric = euclidean_metric(coords)
    else:  # line
        coords = rng.uniform(0.0, spec.coord_range, size=2 * spec.n)
        metric = line_metric(coords)
    perm = rng.permutation(2 * spec.n)
    servers = tuple(sorted(int(p) for p in perm[: spec.n]))
    requests = tuple(int(p) for p in perm[spec.n :])
    return Instance(metric=metric, servers=servers, requests=requests)
