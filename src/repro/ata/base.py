"""Pattern abstraction for structured all-to-all (ATA) schedules.

A pattern is a deterministic sequence of *cycles*; each cycle is a list of
actions on physical qubits:

* ``("gate", u, v)`` — an opportunity to run a problem CPHASE between the
  logical qubits currently at ``u`` and ``v`` (the executor emits the gate
  only if that logical pair still needs one);
* ``("swap", u, v)`` — a structural SWAP that the pattern requires to keep
  its all-to-all guarantee.

Patterns are *position-based*: they guarantee that every pair of physical
positions in their region becomes adjacent with a gate opportunity, so any
initial logical placement works ("all initial mappings have the same
behavior", Section 4 Discussion).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import zip_longest
from typing import FrozenSet, Iterable, Iterator, List, Tuple

from .._telemetry import CacheCounter, register_cache

Action = Tuple[str, int, int]

GATE = "gate"
SWAP = "swap"

#: Replays of a materialized cycle list vs. fresh generator walks, across
#: every cycle-cached pattern in this process (see ``enable_cycle_cache``).
_CYCLE_COUNTER = register_cache(
    "pattern_cycles", CacheCounter("pattern_cycles"), lambda: 0, lambda: None)


class AtaPattern(ABC):
    """A structured schedule achieving all-to-all interaction in a region."""

    @abstractmethod
    def cycles(self) -> Iterator[List[Action]]:
        """Yield the schedule, one cycle (parallel action list) at a time."""

    @property
    @abstractmethod
    def region(self) -> FrozenSet[int]:
        """Physical qubits this pattern touches (and never leaves)."""

    def enable_cycle_cache(self) -> "AtaPattern":
        """Materialize this pattern's full schedule on first iteration.

        Intended for the registry-cached, architecture-wide patterns that
        many compilations replay: the first ``iter_cycles`` walk pays the
        full generation cost once, every later walk is a list replay.  Not
        enabled on per-snapshot restricted patterns, whose executors
        usually stop early and would lose the lazy-generation win.
        """
        self._cache_cycles_on_iter = True
        return self

    def iter_cycles(self) -> Iterator[List[Action]]:
        """The schedule, replayed from the materialized cache when enabled."""
        cached = getattr(self, "_cycle_cache", None)
        if cached is not None:
            _CYCLE_COUNTER.hit()
            return iter(cached)
        if getattr(self, "_cache_cycles_on_iter", False):
            _CYCLE_COUNTER.miss()
            cached = [list(cycle) for cycle in self.cycles()]
            self._cycle_cache = cached
            return iter(cached)
        return self.cycles()

    def restrict(self, qubits: Iterable[int]) -> "AtaPattern":
        """A pattern covering at least ``qubits`` on a smaller region.

        The default is no restriction; structured subclasses narrow to the
        enclosing sub-line / sub-grid / unit range (the paper's "range
        detection", Section 6.3).
        """
        return self

    def _memoized_restrict(self, key, build) -> "AtaPattern":
        """Shared sub-pattern instances, keyed by bounding box.

        Range detection restricts the same architecture pattern to the
        same boxes over and over (once per candidate per region); sharing
        the instance lets per-instance caches (the simulator's
        ``_compiled_cycles`` tuples) amortise to one build per box.  The
        memo is FIFO-capped so adversarial workloads cannot grow it
        unboundedly.
        """
        memo = getattr(self, "_restrict_memo", None)
        if memo is None:
            memo = {}
            self._restrict_memo = memo
        sub = memo.get(key)
        if sub is None:
            if len(memo) >= 256:
                memo.pop(next(iter(memo)))
            sub = build()
            memo[key] = sub
        return sub


def merge_parallel(streams: List[Iterator[List[Action]]]
                   ) -> Iterator[List[Action]]:
    """Zip several disjoint-region cycle streams into combined cycles."""
    for cycle_parts in zip_longest(*streams, fillvalue=None):
        merged: List[Action] = []
        for part in cycle_parts:
            if part:
                merged.extend(part)
        yield merged


def pattern_length(pattern: AtaPattern) -> int:
    """Number of cycles in a pattern's full schedule."""
    return sum(1 for _ in pattern.cycles())
