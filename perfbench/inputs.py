"""Seeded instances for the benchmark's workloads.

The benchmark writes its own inputs so the program under test receives only
generated files: the same seed always gives byte-identical instance JSON,
independent of the program's generators. The JSON layout is the instance
format the CLI reads (points, dist, servers, requests).
"""
from __future__ import annotations

import json
import math

import numpy as np

LINE_LENGTH = 100.0  # length of the segment that line() spreads its points over


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def _euclidean(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


def _instance(dist: np.ndarray, servers, requests) -> dict:
    return {
        "points": [str(i) for i in range(dist.shape[0])],
        "dist": dist.tolist(),
        "servers": [int(s) for s in servers],
        "requests": [int(r) for r in requests],
    }


def cloud(seed: int, n: int) -> dict:
    """2n jittered grid points in the unit square; a random half serves.

    The points take 2n random cells of the smallest square grid that holds
    them, each jittered by up to a quarter cell. Uniform points would put
    the closest pair anywhere near zero, and with it the embedding's tree
    height and the work per episode, which then swing with the seed.
    """
    rng = _rng(seed, 1)
    side = math.ceil(math.sqrt(2 * n))
    cells = rng.choice(side * side, size=2 * n, replace=False)
    xy = np.stack([cells % side, cells // side], axis=1) + 0.5 + rng.uniform(-0.25, 0.25, size=(2 * n, 2))
    dist = _euclidean(xy / side)
    perm = rng.permutation(2 * n)
    return _instance(dist, sorted(perm[:n]), perm[n:])


def depots(seed: int, n_depots: int, per_depot: int, sites: int) -> dict:
    """Few distinct server points with high multiplicity and clustered demand.

    Points 0..n_depots-1 are depots on a jittered square grid, each holding
    ``per_depot`` servers; the remaining ``sites`` points are spread evenly
    over the depots and scattered around them. Half of the depots, chosen at
    random, draw 1/8 more requests than they hold servers and the other half
    1/8 fewer, so an eighth of the demand must travel between clusters; the
    requests come from each depot's own sites, in random order. Fixing the
    size of the imbalance keeps the offline optimum's cost to compute similar
    across seeds.
    """
    rng = _rng(seed, 2)
    side = math.ceil(math.sqrt(n_depots))
    cells = np.array([((i % side) + 0.5, (i // side) + 0.5) for i in range(n_depots)]) / side
    depot_xy = cells + rng.uniform(-0.2, 0.2, size=(n_depots, 2)) / side
    home = rng.permutation(np.arange(sites) % n_depots)
    site_xy = depot_xy[home] + rng.normal(0.0, 0.12 / side, size=(sites, 2))
    dist = _euclidean(np.vstack([depot_xy, site_xy]))
    servers = np.repeat(np.arange(n_depots), per_depot)
    shift = per_depot // 8 * rng.permutation(np.arange(n_depots) % 2 * 2 - 1)
    requests = np.concatenate([
        n_depots + rng.choice(np.flatnonzero(home == d), size=per_depot + int(shift[d]))
        for d in range(n_depots)
    ])
    return _instance(dist, servers, rng.permutation(requests))


def line(seed: int, n: int) -> dict:
    """2n jittered, evenly spaced points on a segment; a random half serves.

    Even spacing bounds the ratio of the largest to the smallest distance,
    which sets the embedding's tree height, so the work per episode does not
    swing with the seed as it does for uniform points.
    """
    rng = _rng(seed, 3)
    xs = (np.arange(2 * n) + rng.uniform(-0.25, 0.25, size=2 * n)) * (LINE_LENGTH / (2 * n))
    dist = np.abs(xs[:, None] - xs[None, :])
    perm = rng.permutation(2 * n)
    return _instance(dist, sorted(perm[:n]), perm[n:])


def write(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")
