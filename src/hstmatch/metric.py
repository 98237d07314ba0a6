"""Finite metric spaces and matching-game instances.

A metric is a labelled point set with an explicit square distance matrix.
An instance pairs a metric with a server multiset and an ordered request
sequence of equal size; the request order is part of the instance.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TRIANGLE_SLACK",
    "MAX_POINTS",
    "MetricStructureError",
    "MetricViolation",
    "FiniteMetric",
    "Instance",
    "validate_metric",
    "ensure_valid_metric",
    "submetric_of_servers",
    "instance_to_dict",
    "instance_from_dict",
    "load_instance",
    "save_instance",
]

# Additive triangle tolerance, scaled by the largest matrix entry. Absorbs
# rounding in floating-point constructions such as Euclidean distances.
TRIANGLE_SLACK = 1e-9

# Largest point count of an instance, generated or loaded. A generated distance matrix
# and FiniteMetric's copy take 16 * MAX_POINTS**2 bytes (1 GiB); a loaded one is converted once.
MAX_POINTS = 2**13

# Blocked loops over a matrix (the triangle check, the Euclidean generator,
# discretize_all) keep at most this many floats (8 MiB) in a temporary at once.
_CHUNK_ENTRIES = 1 << 20


def _is_int(x) -> bool:
    """An int or numpy integer; bool is an int subclass, and floats and strings are never coerced."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_finite_real(x) -> bool:
    """A real number, not a bool, whose float is finite: an int beyond the float range is not."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _checked_seed(seed, name: str = "seed"):
    """Return seed if it is a non-negative integer: numpy would draw OS entropy for None and run True as 1."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")
    return seed


def _checked_points(name: str, entries, n: int) -> tuple:
    """The entries as ints, if each is an integer point index in 0..n - 1; else a ValueError naming the first."""
    for i, p in enumerate(entries := tuple(entries)):
        if not _is_int(p):
            raise ValueError(f"{name}[{i}] = {p!r} is not an integer point index")
        if not 0 <= p < n:
            raise ValueError(f"{name}[{i}] = {p} outside 0..{n - 1}")
    return tuple(map(int, entries))


class MetricStructureError(ValueError):
    """Distance data is malformed: non-square, negative, or non-finite."""


@dataclass(frozen=True)
class MetricViolation:
    """A failed metric axiom, pointing at the offending indices."""

    kind: str  # "diagonal" | "symmetry" | "triangle"
    where: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return self.message


def _as_square_matrix(dist) -> np.ndarray:
    try:
        arr = np.array(dist, dtype=float)  # a copy, also of an ndarray: the caller keeps no handle on it
    except OverflowError:  # a Python int beyond the largest float
        raise MetricStructureError("distance matrix holds an integer too large for a float") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MetricStructureError(f"distance matrix must be square, got shape {arr.shape}")
    if arr.size:
        if not np.isfinite(arr).all():
            raise MetricStructureError("distance matrix contains NaN or infinite entries")
        if float(arr.min()) < 0.0:
            i, j = np.unravel_index(int(arr.argmin()), arr.shape)
            raise MetricStructureError(f"negative distance {arr[i, j]} at ({i}, {j})")
    return arr


@dataclass(frozen=True, eq=False)
class FiniteMetric:
    """Immutable point set with a read-only distance matrix.

    Construction rejects structurally broken input; the metric axioms
    themselves are checked by :func:`validate_metric`.
    """

    points: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_square_matrix(self.dist)
        points = tuple(str(p) for p in self.points)
        if len(points) != arr.shape[0]:
            raise MetricStructureError(
                f"{len(points)} labels for a {arr.shape[0]}x{arr.shape[1]} matrix"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "dist", arr)
        object.__setattr__(self, "points", points)

    @classmethod
    def from_matrix(cls, dist, points=None) -> "FiniteMetric":
        try:  # one label per row, counted without a conversion: the constructor converts and checks once
            n = len(dist)
        except TypeError:  # no rows: the constructor refuses it as not square
            n = 0
        return cls(points=tuple(map(str, range(n)) if points is None else points), dist=dist)

    def __len__(self) -> int:
        return len(self.points)


def validate_metric(m) -> MetricViolation | None:
    """Check the metric axioms; return None if they hold.

    Accepts a FiniteMetric or a raw matrix. Structural junk (non-square,
    negative, NaN) raises MetricStructureError; axiom failures are reported
    as a MetricViolation naming the offending pair or triple. The triangle
    inequality is checked with additive slack TRIANGLE_SLACK * max entry.
    """
    d = (m if isinstance(m, FiniteMetric) else FiniteMetric.from_matrix(m)).dist
    tol = TRIANGLE_SLACK * float(d.max()) if d.size else 0.0
    return _pair_violation(d) or _first_triangle(d, tol)


def _pair_violation(d: np.ndarray) -> MetricViolation | None:
    """The first nonzero diagonal entry of d, else its first asymmetric pair in row-major order."""
    diagonal = np.flatnonzero(d.diagonal())
    if diagonal.size:
        i = int(diagonal[0])
        return MetricViolation("diagonal", (i,), f"dist[{i}][{i}] = {d[i, i]} != 0")
    bad = d != d.T
    if bad.any():
        i, j = (int(x) for x in np.argwhere(bad)[0])
        return MetricViolation("symmetry", (i, j), f"dist[{i}][{j}] = {d[i, j]} != dist[{j}][{i}] = {d[j, i]}")
    return None


def _triangle_violation(d: np.ndarray, i: int, j: int, k: int) -> MetricViolation:
    """Report dist[i][j] > dist[i][k] + dist[k][j] under the indices given."""
    message = f"dist[{i}][{j}] = {d[i, j]} > dist[{i}][{k}] + dist[{k}][{j}] = {d[i, k] + d[k, j]}"
    return MetricViolation("triangle", (i, j, k), message)


def _first_triangle(d: np.ndarray, tol: float) -> MetricViolation | None:
    """The first failing triangle of a symmetric d, or None: the first (i, j), i <= j, in row order whose
    excess d[i, j] - (d[i, k] + d[k, j]) exceeds tol for some k, named with its shortest detour k.

    The detours d[j, k] + d[i, k] add the same floats as d[i, k] + d[k, j], and rounded subtraction
    is monotone, so d[i, j] minus the shortest is the largest excess; that k is never i or j, whose
    detours equal d[i, j]. (j, i) is the same inequality as (i, j). The sums are taken a block of
    rows j at a time, at most _CHUNK_ENTRIES of them at once.
    """
    n = d.shape[0]
    step = max(1, _CHUNK_ENTRIES // max(1, n))
    buf = np.empty((min(step, n), n))
    # A detour that overflows to inf is never shorter than a direct distance,
    # so the overflow cannot change the verdict.
    with np.errstate(over="ignore"):
        for i in range(n):
            for lo in range(i, n, step):
                hi = min(lo + step, n)
                sums = np.add(d[lo:hi], d[i], out=buf[: hi - lo])
                bad = d[i, lo:hi] - sums.min(axis=1) > tol
                if bad.any():
                    r = int(bad.argmax())
                    return _triangle_violation(d, i, lo + r, int(sums[r].argmin()))
    return None


def ensure_valid_metric(m: FiniteMetric) -> FiniteMetric:
    """Return m if it satisfies the metric axioms; otherwise raise a ValueError naming the violation."""
    violation = validate_metric(m)
    if violation is not None:
        raise ValueError(f"invalid metric: {violation}")
    return m


@dataclass(frozen=True, eq=False)
class Instance:
    """A metric, a server multiset, and the adversary's ordered requests."""

    metric: FiniteMetric
    servers: tuple[int, ...]
    requests: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("servers", "requests"):
            object.__setattr__(self, name, _checked_points(name, getattr(self, name), len(self.metric)))
        if len(self.servers) != len(self.requests):
            raise ValueError(f"{len(self.servers)} servers but {len(self.requests)} requests")
        if not self.servers:
            raise ValueError("instance must contain at least one server")

    @property
    def n(self) -> int:
        return len(self.servers)


def submetric_of_servers(inst: Instance) -> tuple[FiniteMetric, dict[int, int]]:
    """Restrict the metric to the distinct server points.

    Returns the submetric and the mapping from parent point index to the
    new index. Distances are copied from the parent matrix, never recomputed.
    """
    pts = sorted(set(inst.servers))
    idx = np.asarray(pts, dtype=int)
    sub = FiniteMetric(
        points=tuple(inst.metric.points[p] for p in pts),
        dist=inst.metric.dist[np.ix_(idx, idx)],
    )
    mapping = {p: i for i, p in enumerate(pts)}
    return sub, mapping


def instance_to_dict(inst: Instance) -> dict:
    return {
        "points": list(inst.metric.points),
        "dist": inst.metric.dist.tolist(),
        "servers": list(inst.servers),
        "requests": list(inst.requests),
    }


def _check_labels(points) -> None:
    """Reject more than MAX_POINTS point labels, and labels that are not JSON strings, which str() would coerce."""
    if not isinstance(points, list):
        raise ValueError(f"points must be a list of strings, got {type(points).__name__}")
    if len(points) > MAX_POINTS:
        raise ValueError(f"instance has {len(points)} points, above MAX_POINTS = {MAX_POINTS}")
    for i, label in enumerate(points):
        if type(label) is not str:
            raise ValueError(f"points[{i}] = {label!r} is not a string")


def _check_numeric_rows(dist) -> None:
    """Reject a dist that is not a list of equal rows of JSON numbers: numpy chokes on the rest, or coerces it."""
    if not isinstance(dist, list):
        raise ValueError(f"dist must be a list of rows, got {type(dist).__name__}")
    for i, row in enumerate(dist):
        if not (isinstance(row, list) and len(row) == len(dist)):
            raise MetricStructureError(f"dist[{i}] is not a row of {len(dist)} entries")
        if not set(map(type, row)) <= {float, int}:
            j, entry = next((j, x) for j, x in enumerate(row) if type(x) not in (float, int))
            raise ValueError(f"dist[{i}][{j}] = {entry!r} is not a number")


def instance_from_dict(data: dict) -> Instance:
    """Build an instance from its JSON object, refusing what a file can get wrong.

    Besides the field types, that is a nonzero diagonal entry or an asymmetric
    pair anywhere in the matrix, and a failing triangle of the k distinct
    server points (an exact Θ(k³) check). A violation names instance points.
    """
    if not isinstance(data, dict):
        raise ValueError(f"instance JSON must be an object, got {type(data).__name__}")
    for name in ("servers", "requests"):
        if not isinstance(data.get(name, []), list):
            raise ValueError(f"{name} must be a list of point indices, got {type(data[name]).__name__}")
    try:
        _check_labels(data["points"])
        _check_numeric_rows(data["dist"])
        metric = FiniteMetric(points=tuple(data["points"]), dist=data["dist"])
        inst = Instance(metric=metric, servers=tuple(data["servers"]), requests=tuple(data["requests"]))
    except KeyError as missing:
        raise ValueError(f"instance JSON lacks required field {missing}") from None
    sub, mapping = submetric_of_servers(inst)
    violation = _pair_violation(metric.dist) or validate_metric(sub)
    if violation is not None:
        if violation.kind == "triangle":  # found in the server submetric: name instance points
            pts = list(mapping)
            violation = _triangle_violation(metric.dist, *(pts[x] for x in violation.where))
        raise ValueError(f"invalid metric: {violation}")
    return inst


def load_instance(path) -> Instance:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def save_instance(inst: Instance, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh)
        fh.write("\n")
