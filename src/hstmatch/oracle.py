"""Exact offline optimum, turning-point cost decomposition, and bound formulas.

The assignment oracle provides the ratio denominators; tau, the optimal
pairs turning at each node of a tree as a tuple indexed by node, recovers the
optimal cost on the tree combinatorially, and the bound functions evaluate,
from the tree and tau, the envelopes the Monte Carlo suite tests against.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count, islice

import numpy as np

from .hst import HstTree, lambda_for_n
from .metric import Instance, _checked_points

__all__ = [
    "OptimalMatching",
    "optimal_matching",
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
    cost = inst.metric.dist.take(srv, axis=0).take(req, axis=1)
    rows, cols = _linear_sum_assignment()(cost)
    served = tuple(srv[rows[np.argsort(cols)]].tolist())
    with np.errstate(over="ignore"):  # an overflowing sum is inf, which a run refuses
        return OptimalMatching(served=served, cost=float(cost[rows, cols].sum()))


def turning_point_tau(t: HstTree, requests) -> tuple:
    """Pairs turning at each node, by node id, for ``requests``, a multiset of the tree's point indices.

    For each node v let b(v) be requests minus servers inside v's subtree;
    any optimal matching sends exactly |b(v)| pairs across the edge above v,
    so tau(u) = (sum of |b(child)| - |b(u)|) / 2, and 0 at a leaf.
    """
    b = [0] * t.first_leaf + [-s for s in t.servers[t.first_leaf:]]  # requests less servers in v's subtree
    for p in _checked_points("requests", requests, len(t.point_leaf)):
        b[t.point_leaf[p]] += 1
    for v in range(t.n_nodes - 1, 0, -1):  # breadth-first numbering: parents precede children
        b[t.parent[v]] += b[v]
    if b[0] != 0:
        raise ValueError("request and server totals differ")
    spread = [sum(abs(b[c]) for c in t.children[v]) - abs(b[v]) for v in range(t.first_leaf)]
    if any(x < 0 or x % 2 for x in spread):
        raise AssertionError("imbalance bookkeeping broke")
    return (*(x // 2 for x in spread), *[0] * len(t.leaf_point))  # no pair turns at a leaf


def _tau_sum(t: HstTree, tau, table, name: str, factor: float = 1.0) -> float:
    """factor * sum of tau(u) * table[level(u)] over the turning points, added in node order; refuses an overflow.

    ``table`` is any iterable by level, read only up to the highest turning level."""
    top = max((lv for lv, k in zip(t.level, tau) if k), default=0)
    with suppress(OverflowError):  # a power beyond the range raises; a sum or product beyond it is inf
        table = list(islice(table, top + 1))
        total = 0.0
        for lv, k in zip(t.level, tau):
            if k:
                total += k * table[lv]
        if math.isfinite(factor * total):
            return factor * total
    raise ValueError(f"{name} overflows: a pair turns at level {top}")


def hst_cost_from_tau(t: HstTree, tau) -> float:
    """Optimal matching cost on the tree: sum of tau(u) times the leaf distance meeting at u."""
    return _tau_sum(t, tau, t.level_distance, "hst_cost_from_tau")


def bound_rwgm_hst(t: HstTree, tau) -> float:
    """Envelope for the matcher's expected cost: scale * 2 * sum tau(u) * sum c_i lam^i.

    c_i = 1/2 + 1/4 + ... + (1/2)**i rises toward one, and rounds to exactly one from i = 54 on.
    """
    c = accumulate(0.5**i for i in count(1))
    terms = (c_i * t.lam**i for i, c_i in enumerate(c, start=1))
    return _tau_sum(t, tau, accumulate(terms, initial=0.0), f"bound_rwgm_hst at lam={t.lam!r}", t.scale * 2.0)


def expected_moves_bound(t: HstTree, tau, n: int) -> float:
    """Envelope for the expected number of cross-leaf moves.

    Evaluates sum over nodes of tau(u) * sum_{i=1..h(u)} (1 + ln n)^i; the
    move count of an episode is the number of requests served away from
    their own leaf.
    """
    base = lambda_for_n(n) / 2.0  # 1 + ln n; refuses an n that is not a positive integer
    return _tau_sum(t, tau, accumulate((base**i for i in count(1)), initial=0.0), f"expected_moves_bound at n={n}")
