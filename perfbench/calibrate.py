"""A fixed pure-Python loop that times the host rather than the program.

On a shared machine the host's speed drifts by a fifth or more within
minutes, and the program's work is CPU-bound, so its timings follow that
drift.  The closed loop times this loop every half second during a run;
the work times are then put on the scale of a host that runs it in
NOMINAL_S.  The loop uses nothing from the package, so a change to the
program does not change it.
"""

from __future__ import annotations

import gc
import random
import time

# Seconds the loop takes on an unloaded 2-CPU x86-64 host.  Only ratios to
# it are reported, so it is a fixed constant, not a measurement.
NOMINAL_S = 0.025

_rng = random.Random(20161)
_POINTS = [(_rng.random() * 200.0, _rng.random()) for _ in range(2000)]


def host_seconds() -> float:
    """Time one run of the loop: a sweep that collects overlapping interval
    pairs into adjacency sets, then sorts and sums them, which exercises
    the interpreter much as the conflict-graph build does."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        intervals = sorted((a, a + 6.0 * w) for a, w in _POINTS)
        adjacency = {}
        for i, (start, end) in enumerate(intervals):
            for j in range(i + 1, len(intervals)):
                if intervals[j][0] >= end:
                    break
                adjacency.setdefault(i, set()).add(j)
                adjacency.setdefault(j, set()).add(i)
        total = sum(sum(sorted(n)) for n in adjacency.values())
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    assert total > 0
    return elapsed
