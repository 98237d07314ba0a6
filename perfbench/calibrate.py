"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the same code runs up to 1.8x slower in spells
that last from a second to minutes, because other tenants contend for the
cores, caches and memory. A run that falls inside a long spell reads slow in
every sample, so no statistic over its samples removes it. The kernel below
never changes, so its time tracks those spells and nothing else; the
throughput child probes it before and after every timed call, and the
benchmark scales its times by ``REFERENCE_S / probe time``. The kernel mixes
the two kinds of work a run_pipeline call spends its time on: Python dict
and list work, and numpy on small arrays. (Random reads from an array larger
than the caches were tried as a third part; they follow other tenants'
memory traffic more than the calls do, and made the scaled calls spread
more, not less.)
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# About the median time of one kernel run on a 2-core shared VM (Python
# 3.11.7, numpy 2.4.6). Only its being fixed matters: it sets the unit in
# which scaled times read, the same for every commit.
REFERENCE_S = 0.005

# A CLI child is a fresh process: start-up, imports and file output slow
# less than the kernel does. Across 55 runs of euclid-embed and depot-serve
# on that VM, log(CLI time) rose with log(median probe of the run) at slope
# 0.51 to 0.66 (correlation 0.78 to 0.91); the lower value is used, so a
# slow spell is under- rather than over-corrected.
CLI_ELASTICITY = 0.5

PROBE_RUNS = 3  # kernel runs per probe, about 15 ms in all

_RNG = np.random.default_rng(20070531)
_KEYS = [int(k) for k in _RNG.integers(0, 1 << 30, size=15_000)]
_SMALL = np.arange(300.0)


def _kernel() -> float:
    table: dict = {}
    for k in _KEYS:
        table[k % 1009] = table.get(k % 1009, 0) + k
    ordered = sorted(table.items())
    a = _SMALL
    for _ in range(300):
        a = np.sqrt(a * a + 1.0)
        a.argsort()
    return float(a.sum()) + len(ordered)


def probe() -> float:
    """Mean seconds of one kernel run, over PROBE_RUNS runs taken now."""
    t0 = time.perf_counter()
    for _ in range(PROBE_RUNS):
        _kernel()
    return (time.perf_counter() - t0) / PROBE_RUNS


def scaled(seconds: float, probes, elasticity: float = 1.0) -> float:
    """``seconds`` measured next to ``probes``, scaled to reference speed.

    ``elasticity`` is how strongly the sample's time follows the probe's:
    1 for work like the kernel's in the same process, less for work that
    slows less than the kernel does.
    """
    return seconds * (REFERENCE_S / statistics.median(probes)) ** elasticity
