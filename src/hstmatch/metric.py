"""Finite metric spaces and matching-game instances.

A metric is a labelled point set with an explicit square distance matrix.
An instance pairs a metric with a server multiset and an ordered request
sequence of equal size; the request order is part of the instance.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TRIANGLE_SLACK",
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
    arr = np.asarray(dist, dtype=float)
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
        arr = _as_square_matrix(self.dist).copy()
        points = tuple(str(p) for p in self.points)
        if len(points) != arr.shape[0]:
            raise MetricStructureError(
                f"{len(points)} labels for a {arr.shape[0]}x{arr.shape[1]} matrix"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "dist", arr)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_validated", False)

    @classmethod
    def from_matrix(cls, dist, points=None) -> "FiniteMetric":
        arr = _as_square_matrix(dist)
        if points is None:
            points = tuple(str(i) for i in range(arr.shape[0]))
        return cls(points=tuple(points), dist=arr)

    def __len__(self) -> int:
        return len(self.points)

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])


def validate_metric(m) -> MetricViolation | None:
    """Check the metric axioms; return None if they hold.

    Accepts a FiniteMetric or a raw matrix. Structural junk (non-square,
    negative, NaN) raises MetricStructureError; axiom failures are reported
    as a MetricViolation naming the offending pair or triple. The triangle
    inequality is checked with additive slack TRIANGLE_SLACK * max entry.
    """
    metric = m if isinstance(m, FiniteMetric) else FiniteMetric.from_matrix(m)
    d = metric.dist
    n = d.shape[0]
    for i in range(n):
        if d[i, i] != 0.0:
            return MetricViolation("diagonal", (i,), f"dist[{i}][{i}] = {d[i, i]} != 0")
    if not np.array_equal(d, d.T):
        bad = np.argwhere(d != d.T)
        i, j = (int(x) for x in bad[0])
        return MetricViolation(
            "symmetry", (i, j), f"dist[{i}][{j}] = {d[i, j]} != dist[{j}][{i}] = {d[j, i]}"
        )
    tol = TRIANGLE_SLACK * float(d.max()) if n else 0.0
    excess = np.empty_like(d)  # reused by every k: holds d - (d[:, k] + d[k, :])
    # A detour that overflows to inf is never shorter than a direct distance,
    # so the overflow cannot change the verdict.
    with np.errstate(over="ignore"):
        for k in range(n):
            np.add(d[:, k : k + 1], d[k : k + 1, :], out=excess)
            np.subtract(d, excess, out=excess)
            if float(excess.max()) > tol:
                i, j = np.unravel_index(int(excess.argmax()), excess.shape)
                return MetricViolation(
                    "triangle",
                    (int(i), int(j), k),
                    f"dist[{i}][{j}] = {d[i, j]} > dist[{i}][{k}] + dist[{k}][{j}] = {d[i, k] + d[k, j]}",
                )
    object.__setattr__(metric, "_validated", True)
    return None


def ensure_valid_metric(m: FiniteMetric) -> FiniteMetric:
    """Validate once per object; subsequent calls are free."""
    if not getattr(m, "_validated", False):
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
        npts = len(self.metric)
        for name in ("servers", "requests"):
            entries = tuple(getattr(self, name))
            for i, idx in enumerate(entries):
                # bool is an int subclass; floats and strings are never coerced.
                if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
                    raise ValueError(f"{name}[{i}] = {idx!r} is not an integer point index")
                if not 0 <= idx < npts:
                    raise ValueError(f"point index {idx} outside 0..{npts - 1}")
            object.__setattr__(self, name, tuple(int(idx) for idx in entries))
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
    if not pts:
        raise ValueError("empty server set")
    idx = np.asarray(pts, dtype=int)
    sub = FiniteMetric(
        points=tuple(inst.metric.points[p] for p in pts),
        dist=inst.metric.dist[np.ix_(idx, idx)],
    )
    if getattr(inst.metric, "_validated", False):
        # A restriction of a valid metric is valid.
        object.__setattr__(sub, "_validated", True)
    mapping = {p: i for i, p in enumerate(pts)}
    return sub, mapping


def instance_to_dict(inst: Instance) -> dict:
    return {
        "points": list(inst.metric.points),
        "dist": inst.metric.dist.tolist(),
        "servers": list(inst.servers),
        "requests": list(inst.requests),
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        metric = FiniteMetric(points=tuple(data["points"]), dist=data["dist"])
        return Instance(metric=metric, servers=tuple(data["servers"]), requests=tuple(data["requests"]))
    except KeyError as missing:
        raise ValueError(f"instance JSON lacks required field {missing}") from None


def load_instance(path) -> Instance:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def save_instance(inst: Instance, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh)
        fh.write("\n")
