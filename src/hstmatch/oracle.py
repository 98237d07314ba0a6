"""Exact offline optimum, turning-point cost decomposition, and bound formulas.

The assignment oracle provides the ratio denominators; the turning-point
profile recovers the optimal cost on a tree combinatorially, and the bound
functions evaluate the geometric envelopes that the Monte Carlo suite tests
the randomized matcher against.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Mapping

import numpy as np

from .hst import HstTree
from .metric import Instance

__all__ = [
    "OptimalMatching",
    "optimal_matching",
    "TurningPointProfile",
    "turning_point_tau",
    "hst_cost_from_tau",
    "bound_rwgm_hst",
    "expected_moves_bound",
]


@dataclass(frozen=True)
class OptimalMatching:
    """A minimum-cost perfect matching: ``served[j]`` is the server point matched to request j."""

    served: tuple
    cost: float


_LSAP = "scipy.optimize._lsap"


@lru_cache(maxsize=None)
def _linear_sum_assignment():
    """scipy's assignment solver, loaded once per process.

    Importing scipy.optimize takes most of a short run's wall time, so the
    solver's compiled extension is loaded on its own, without running
    scipy/optimize/__init__.py. This depends on scipy's private layout: the
    public scipy.optimize.linear_sum_assignment is the function of the
    extension module scipy.optimize._lsap. Whenever that file is missing or
    will not load, the public import is used instead; that fallback is what
    keeps the result correct on any other layout.
    """
    try:
        return _load_lsap().linear_sum_assignment
    except (ImportError, OSError, AttributeError):
        from scipy.optimize import linear_sum_assignment

        return linear_sum_assignment


def _load_lsap():
    """Load scipy.optimize._lsap from its file, leaving sys.modules as it was."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, "optimize", "_lsap" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no compiled {_LSAP} in {scipy_dir}")
    loader = importlib.machinery.ExtensionFileLoader(_LSAP, path)
    registered = _LSAP in sys.modules
    try:
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_LSAP, loader))
        loader.exec_module(module)
    finally:
        # Loading a single-phase extension registers it without its package;
        # dropping the entry lets a later `import scipy.optimize` load it as usual.
        if not registered:
            sys.modules.pop(_LSAP, None)
    return module


def optimal_matching(inst: Instance) -> OptimalMatching:
    """Exact minimum-cost matching of server instances to requests.

    Multiset points are expanded into individual instances and the n x n
    distance matrix is solved exactly; the cost is the offline optimum used
    as the competitive-ratio denominator.
    """
    srv = np.asarray(inst.servers, dtype=int)
    req = np.asarray(inst.requests, dtype=int)
    cost = inst.metric.dist[np.ix_(srv, req)]
    rows, cols = _linear_sum_assignment()(cost)
    served = tuple(srv[rows[np.argsort(cols)]].tolist())
    with np.errstate(over="ignore"):  # an overflowing sum is inf, which a run refuses
        return OptimalMatching(served=served, cost=float(cost[rows, cols].sum()))


@dataclass(frozen=True)
class TurningPointProfile:
    """Per-node pair counts tau(u) on one tree instance.

    tau(u) counts the matched pairs whose tree path peaks at u; it is the
    same for every optimal matching, so it is computed directly from the
    per-subtree imbalance between requests and servers.
    """

    tau: dict
    tree: HstTree

    @property
    def max_height(self) -> int:
        """Highest level of a node with a turning pair; 0 when there is none."""
        return max((self.tree.level[u] for u, tau in self.tau.items() if tau), default=0)


def turning_point_tau(
    t: HstTree,
    request_count: Mapping,
    server_count: Mapping | None = None,
) -> TurningPointProfile:
    """Turning-point counts from leaf tallies of requests and servers.

    For each node v let b(v) be requests minus servers inside v's subtree;
    any optimal matching sends exactly |b(v)| pairs across the edge above v,
    so tau(u) = (sum of |b(child)| - |b(u)|) / 2 at every internal node.
    """
    if server_count is None:
        server_count = dict(enumerate(t.servers))
    excess = {leaf: int(request_count.get(leaf, 0)) - int(server_count.get(leaf, 0)) for leaf in t.leaves}
    b = t.subtree_sums(excess)
    if b[t.root] != 0:
        raise ValueError("request and server totals differ")
    tau = {}
    for v in range(t.first_leaf):  # the internal nodes; no pair turns at a leaf
        spread = sum(abs(b[c]) for c in t.children[v]) - abs(b[v])
        if spread < 0 or spread % 2:
            raise AssertionError(f"imbalance bookkeeping broke at node {v}")
        tau[v] = spread // 2
    tau.update(dict.fromkeys(t.leaves, 0))
    return TurningPointProfile(tau=tau, tree=t)


def _tau_sum(profile: TurningPointProfile, table) -> float:
    """sum of tau(u) * table[height(u)] over the turning points, added in node order."""
    total = 0.0
    for u, tau in profile.tau.items():
        if tau:
            total += tau * table[profile.tree.level[u]]
    return total


def hst_cost_from_tau(profile: TurningPointProfile) -> float:
    """Optimal matching cost on the tree: sum of tau(u) times the leaf distance meeting at u."""
    return _tau_sum(profile, profile.tree.level_distance)


def bound_rwgm_hst(profile: TurningPointProfile) -> float:
    """Envelope for the matcher's expected cost: scale * 2 * sum tau(u) * sum c_i lam^i.

    c_i = 1/2 + 1/4 + ... + (1/2)**i rises toward (but never reaches) one.
    """
    lam = profile.tree.lam
    c = accumulate(0.5**i for i in range(1, profile.max_height + 1))
    prefix = list(accumulate((c_i * lam**i for i, c_i in enumerate(c, start=1)), initial=0.0))
    return profile.tree.scale * 2.0 * _tau_sum(profile, prefix)


def expected_moves_bound(profile: TurningPointProfile, n: int) -> float:
    """Envelope for the expected number of cross-leaf moves.

    Evaluates sum over nodes of tau(u) * sum_{i=1..h(u)} (1 + ln n)^i; the
    move count of an episode is the number of requests served away from
    their own leaf.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    base = 1.0 + math.log(n)
    prefix = list(accumulate((base**i for i in range(1, profile.max_height + 1)), initial=0.0))
    return _tau_sum(profile, prefix)
