"""Process-local cache registry, cache-delta scopes and percentiles.

This is a leaf module (imports nothing from :mod:`repro`) so that the hot
modules — :mod:`repro.arch.coupling`, :mod:`repro.ata.registry`,
:mod:`repro.compiler.framework` — can share counters without creating
import cycles with the batch engine that reports them.

Every memoization site creates a :class:`CacheCounter` and registers it
together with ``size``/``clear`` callbacks; :func:`cache_info` then gives a
single point-in-time view of all caches in this process.  Per-unit-of-work
hit/miss deltas come from :func:`measure_cache_delta` scopes: the pipeline
opens one per pass (the ``cache`` of each ``extra["passes"]`` record) and
the batch engine one per job; :func:`sum_cache_deltas` adds them up.
:func:`percentile` summarizes the serve daemon's latency window.

There is no process-wide event tally: every other count lives in the
record of the job or request that caused it (``SolverResult.stats``,
``JobResult.attempts``, ``ServeStats``, ``ResultStore.corrupt_reads``).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List


class _ScopeStack(threading.local):
    """Per-thread stack of open :class:`CacheDeltaScope` objects."""

    def __init__(self) -> None:
        self.stack: List["CacheDeltaScope"] = []


_scopes = _ScopeStack()


class CacheDeltaScope:
    """Exact hit/miss attribution for one unit of work on one thread.

    The historic way to measure a per-compilation cache delta was two
    :func:`cache_info` snapshots subtracted by :func:`cache_delta`.
    Those counters are process-global: when two requests compile
    concurrently in the same process (thread executor, a long-lived
    serve daemon), their windows interleave and each request's delta
    absorbs the other's hits.  A scope instead accumulates only the
    events raised *on the opening thread* while it is open, so
    concurrent requests can never misattribute each other's traffic —
    and counters inherited from a forked parent are structurally
    excluded (a scope starts at zero, not at the inherited totals).
    """

    __slots__ = ("_deltas",)

    def __init__(self) -> None:
        self._deltas: Dict[str, List[int]] = {}

    def _bump(self, name: str, slot: int) -> None:
        bucket = self._deltas.get(name)
        if bucket is None:
            bucket = self._deltas[name] = [0, 0]
        bucket[slot] += 1

    def delta(self) -> Dict[str, Dict[str, int]]:
        """Per-cache ``{"hits", "misses"}`` observed while open.

        Every registered cache is present (zeros included), matching the
        shape :func:`cache_delta` produced so downstream schemas are
        unchanged.
        """
        out: Dict[str, Dict[str, int]] = {}
        for name in sorted(_REGISTRY):
            bucket = self._deltas.get(name)
            out[name] = {"hits": bucket[0] if bucket else 0,
                         "misses": bucket[1] if bucket else 0}
        return out


@contextmanager
def measure_cache_delta() -> Iterator[CacheDeltaScope]:
    """Open a :class:`CacheDeltaScope` on the current thread.

    Scopes nest: an inner scope (a single pass) and an outer scope (the
    whole batch job) both observe the same events.
    """
    scope = CacheDeltaScope()
    _scopes.stack.append(scope)
    try:
        yield scope
    finally:
        _scopes.stack.remove(scope)


class CacheCounter:
    """Hit/miss tally for one memoization site."""

    __slots__ = ("name", "hits", "misses")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0

    def hit(self) -> None:
        self.hits += 1
        for scope in _scopes.stack:
            scope._bump(self.name, 0)

    def miss(self) -> None:
        self.misses += 1
        for scope in _scopes.stack:
            scope._bump(self.name, 1)

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:
        return f"CacheCounter({self.name!r}, hits={self.hits}, misses={self.misses})"


_REGISTRY: Dict[str, tuple] = {}


def register_cache(name: str, counter: CacheCounter,
                   size_fn: Callable[[], int],
                   clear_fn: Callable[[], None]) -> CacheCounter:
    """Register a memoization site; returns ``counter`` for convenience."""
    _REGISTRY[name] = (counter, size_fn, clear_fn)
    return counter


def cache_info() -> Dict[str, Dict[str, int]]:
    """``{cache_name: {"hits", "misses", "size"}}`` for every registered cache."""
    out: Dict[str, Dict[str, int]] = {}
    for name, (counter, size_fn, _clear) in sorted(_REGISTRY.items()):
        info = counter.snapshot()
        info["size"] = size_fn()
        out[name] = info
    return out


def cache_delta(before: Dict[str, Dict[str, int]],
                after: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Hits/misses accrued between two :func:`cache_info` snapshots."""
    delta: Dict[str, Dict[str, int]] = {}
    for name, now in after.items():
        then = before.get(name, {})
        delta[name] = {
            "hits": now["hits"] - then.get("hits", 0),
            "misses": now["misses"] - then.get("misses", 0),
        }
    return delta


def sum_cache_deltas(deltas: Iterable[Dict[str, Dict[str, int]]]
                     ) -> Dict[str, Dict[str, int]]:
    """Per-cache ``{"hits", "misses"}`` summed over several deltas."""
    totals: Dict[str, Dict[str, int]] = {}
    for delta in deltas:
        for name, counts in delta.items():
            bucket = totals.setdefault(name, {"hits": 0, "misses": 0})
            bucket["hits"] += counts.get("hits", 0)
            bucket["misses"] += counts.get("misses", 0)
    return totals


def clear_caches() -> None:
    """Empty every registered cache and zero its counters (test isolation)."""
    for counter, _size, clear_fn in _REGISTRY.values():
        clear_fn()
        counter.reset()


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100]).

    Plain-python on purpose: latency summaries run inside the serve
    daemon's event loop, where importing numpy per request would be
    absurd.  Returns ``0.0`` for an empty sample set.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[min(n - 1, max(0, math.ceil(q * n / 100) - 1))]
