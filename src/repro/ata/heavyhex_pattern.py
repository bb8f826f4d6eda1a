"""Heavy-hex ATA: two passes of the line pattern over the longest path with
interleaved path<->off-path interactions — Section 5.1 / Appendix C.

Cycle structure:

* **Pass 1** — the line pattern runs over the longest path.  After every
  swap layer an *interleave* cycle offers a gate opportunity between each
  off-path (interior bridge) qubit and its on-path anchors; since path
  occupants keep moving, each anchor position sees a stream of different
  logical qubits, covering most path-to-off-path pairs.
* **Exchange** — one SWAP cycle moves every off-path occupant onto the path
  (each bridge swaps with one anchor; anchors are distinct by construction).
* **Pass 2** — the line pattern again, with interleaves, covering
  off-path-to-off-path pairs and the remaining path-to-off-path pairs.

Appendix C argues two passes suffice; we additionally report any residual
pairs so the executor can finish them with greedy routing, making the
schedule unconditionally correct (tests observe empty residuals for all
generated heavy-hex instances; tiny residuals can occur on irregular
devices like Mumbai).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Sequence

from .base import GATE, SWAP, Action, AtaPattern
from .line_pattern import LinePattern


class HeavyHexPattern(AtaPattern):
    """Two-pass longest-path schedule for heavy-hex style devices.

    Parameters
    ----------
    path:
        The longest path (from architecture metadata).
    off_path:
        Mapping from each off-path qubit to its on-path anchor qubits.
    """

    def __init__(self, path: Sequence[int],
                 off_path: Dict[int, List[int]]) -> None:
        self.path = list(path)
        self.off_path = {node: list(anchors)
                         for node, anchors in sorted(off_path.items())}

    @classmethod
    def for_architecture(cls, coupling) -> "HeavyHexPattern":
        return cls(coupling.metadata["path"], coupling.metadata["off_path"])

    def qubits(self) -> Iterator[int]:
        return chain(self.path, self.off_path)

    def _interleave(self) -> List[Action]:
        return [(GATE, node, anchor)
                for node, anchors in self.off_path.items()
                for anchor in anchors]

    def _exchange(self) -> List[Action]:
        return [(SWAP, node, anchors[0])
                for node, anchors in self.off_path.items()]

    def _pass_cycles(self) -> Iterator[List[Action]]:
        """One line-pattern pass with an interleave after each swap cycle."""
        if self.off_path:
            yield self._interleave()
        for index, cycle in enumerate(LinePattern(self.path).cycles()):
            yield cycle
            is_swap_cycle = index % 2 == 1
            if is_swap_cycle and self.off_path:
                yield self._interleave()

    def cycles(self) -> Iterator[List[Action]]:
        yield from self._pass_cycles()
        if self.off_path:
            yield self._exchange()
            yield from self._pass_cycles()

    def _compiled_plan(self):
        """(distinct cycles, schedule indices) for the schedule walk.

        ``repro.ata.executor.compiled_cycles`` converts and flags each
        distinct cycle once.

        Both passes replay the line pattern's four distinct cycles; the
        interleave and exchange cycles are constant, so six distinct
        cycles cover the whole two-pass schedule.
        """
        line_distinct, line_schedule = LinePattern(self.path)._compiled_plan()
        if not self.off_path:
            return line_distinct, line_schedule
        distinct = list(line_distinct) + [self._interleave(),
                                          self._exchange()]
        interleave_index = len(line_distinct)
        exchange_index = interleave_index + 1
        pass_schedule = [interleave_index]
        for position, index in enumerate(line_schedule):
            pass_schedule.append(index)
            if position % 2 == 1:  # after each swap cycle
                pass_schedule.append(interleave_index)
        return distinct, pass_schedule + [exchange_index] + pass_schedule

    def restrict(self, qubits) -> "HeavyHexPattern":
        """Narrow to a path segment when no off-path qubit is involved."""
        wanted = set(qubits)
        if not self.off_path.keys().isdisjoint(wanted):
            return self
        index = getattr(self, "_position_index", None)
        if index is None:
            index = {q: i for i, q in enumerate(self.path)}
            self._position_index = index
        positions = [index[q] for q in wanted]  # det: ok — min/max only
        lo, hi = min(positions), max(positions)
        if lo == 0 and hi == len(self.path) - 1 and not self.off_path:
            return self
        # Off-path anchors inside the segment stay available for interleaves
        # of pairs that might still need them; with no off-path qubits in the
        # region they are unnecessary, so drop them.
        return self._memoized_restrict(
            (lo, hi), lambda: HeavyHexPattern(self.path[lo:hi + 1], {}))

    def __repr__(self) -> str:
        return (f"HeavyHexPattern(path={len(self.path)}, "
                f"off_path={len(self.off_path)})")
