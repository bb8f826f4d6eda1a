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

A pattern only generates its schedule; :mod:`repro.ata.executor` walks
it, and caches each instance's cycles in the walk's compact form.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from itertools import zip_longest
from typing import FrozenSet, Iterable, Iterator, List, Tuple

Action = Tuple[str, int, int]

GATE = "gate"
SWAP = "swap"

#: Held to evict from or insert into any pattern's restrict memo; not on
#: the instance, since patterns are pickled to pool workers.
_RESTRICT_LOCK = threading.Lock()


class AtaPattern(ABC):
    """A structured schedule achieving all-to-all interaction in a region."""

    @abstractmethod
    def cycles(self) -> Iterator[List[Action]]:
        """Yield the schedule, one cycle (parallel action list) at a time."""

    @abstractmethod
    def qubits(self) -> Iterable[int]:
        """Physical qubits this pattern touches (and never leaves), each
        once, in the pattern's own order; no set is built."""

    @property
    def region(self) -> FrozenSet[int]:
        """:meth:`qubits` as a set."""
        return frozenset(self.qubits())

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
        the instance lets the per-instance cycle cache
        (:func:`repro.ata.executor.compiled_cycles`) amortise to one
        build per box.  The memo is FIFO-capped so adversarial workloads
        cannot grow it unboundedly.
        """
        memo = getattr(self, "_restrict_memo", None)
        if memo is None:
            memo = {}
            self._restrict_memo = memo
        sub = memo.get(key)
        if sub is None:
            sub = build()
            with _RESTRICT_LOCK:
                if key not in memo:
                    if len(memo) >= 256:
                        memo.pop(next(iter(memo)))
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
