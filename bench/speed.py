"""A fixed pure-Python speed probe, to scale timings by machine speed.

On a shared host the same compile can run twice as slowly for tens of
seconds.  The benchmark therefore runs this probe (a breadth-first search
over a fixed random graph, about 7 ms, with the garbage collector off)
between operations and scales each round's timings by how fast the probe
ran next to them, relative to :data:`NOMINAL_S`.  The probe is the
benchmark's own code, so no change to the program can speed it up or
slow it down; on a quiet machine like the one it was tuned on, a scaled
time reads about the same as the wall time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Sequence

#: The probe's median run time on the machine the benchmark was tuned on
#: (2-vCPU VM, "Intel Xeon Processor", CPython 3.11); scaled times are
#: wall times at that speed.
NOMINAL_S = 0.0072

#: Probe runs at each probe point.
RUNS = 2

_NODES = 4096
_rng = random.Random(20231)
_ADJACENCY = tuple(tuple(_rng.randrange(_NODES) for _ in range(4))
                   for _ in range(_NODES))
del _rng


def _search() -> int:
    reached = 0
    for start in range(0, _NODES, 512):
        seen = bytearray(_NODES)
        seen[start] = 1
        frontier = [start]
        while frontier:
            following = []
            for node in frontier:
                for neighbour in _ADJACENCY[node]:
                    if not seen[neighbour]:
                        seen[neighbour] = 1
                        following.append(neighbour)
            frontier = following
        reached += sum(seen)
    return reached


def probe() -> float:
    """Seconds one probe run takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _search()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than nominal the machine ran, from probe times."""
    return statistics.median(samples) / NOMINAL_S
