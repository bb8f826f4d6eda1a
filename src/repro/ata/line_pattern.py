"""The 1xUnit (line) all-to-all pattern — Fig 6 / Fig 7.

The schedule repeats a four-cycle block::

    CPHASE(Q_i, Q_i+1)  for even i        (computation layer)
    SWAP  (Q_i, Q_i+1)  for odd  i        (swap layer)
    CPHASE(Q_i, Q_i+1)  for odd  i        (computation layer)
    SWAP  (Q_i, Q_i+1)  for even i        (swap layer)

After ``ceil(m/2)`` blocks (``2m`` cycles) every pair of the ``m`` positions
has been adjacent at a computation layer at least once, and — for even
``m`` — the occupants end exactly reversed (the dotted SWAPs of Fig 6(b)).
The reversal is what lets two interleaved units exchange their contents, the
mechanism behind the Sycamore and hexagon compositions.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from .base import GATE, SWAP, Action, AtaPattern


class LinePattern(AtaPattern):
    """Odd-even transposition network over a physical chain.

    Parameters
    ----------
    path:
        Physical qubits in chain order; consecutive entries must be coupled
        (the caller guarantees this — generators attach valid paths).
    """

    def __init__(self, path: Sequence[int]) -> None:
        if len(path) != len(set(path)):
            raise ValueError("line pattern path revisits a qubit")
        self.path = list(path)

    def qubits(self) -> List[int]:
        return self.path

    @property
    def reverses(self) -> bool:
        """Whether the full schedule exactly reverses the occupants."""
        return len(self.path) % 2 == 0

    def cycles(self) -> Iterator[List[Action]]:
        path = self.path
        m = len(path)
        if m < 2:
            return
        n_blocks = (m + 1) // 2
        for _ in range(n_blocks):
            yield [(GATE, path[i], path[i + 1]) for i in range(0, m - 1, 2)]
            yield [(SWAP, path[i], path[i + 1]) for i in range(1, m - 1, 2)]
            yield [(GATE, path[i], path[i + 1]) for i in range(1, m - 1, 2)]
            yield [(SWAP, path[i], path[i + 1]) for i in range(0, m - 1, 2)]

    def _compiled_plan(self):
        """(distinct cycles, schedule indices) for the schedule walk.

        ``repro.ata.executor.compiled_cycles`` converts and flags each
        distinct cycle once.

        The schedule is one four-cycle block repeated ``ceil(m/2)`` times,
        so only four distinct cycles exist.
        """
        path = self.path
        m = len(path)
        if m < 2:
            return [], []
        distinct = [
            [(GATE, path[i], path[i + 1]) for i in range(0, m - 1, 2)],
            [(SWAP, path[i], path[i + 1]) for i in range(1, m - 1, 2)],
            [(GATE, path[i], path[i + 1]) for i in range(1, m - 1, 2)],
            [(SWAP, path[i], path[i + 1]) for i in range(0, m - 1, 2)],
        ]
        return distinct, [0, 1, 2, 3] * ((m + 1) // 2)

    def restrict(self, qubits) -> "LinePattern":
        """The minimal contiguous sub-chain containing ``qubits``.

        Returns ``self`` when the sub-chain spans the whole path, so the
        caller keeps the (possibly cycle-cached) original instance.
        """
        index = getattr(self, "_position_index", None)
        if index is None:
            index = {q: i for i, q in enumerate(self.path)}
            self._position_index = index
        positions = [index[q] for q in qubits]
        lo, hi = min(positions), max(positions)
        if lo == 0 and hi == len(self.path) - 1:
            return self
        return self._memoized_restrict(
            (lo, hi), lambda: LinePattern(self.path[lo:hi + 1]))

    def __repr__(self) -> str:
        return f"LinePattern(m={len(self.path)})"
