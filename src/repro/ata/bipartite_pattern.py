"""The 2xUnit bipartite all-to-all pattern for the 2D grid — Fig 8 / Fig 9.

Two adjacent rows ``A`` and ``B`` of length ``N``.  Each iteration runs one
computation cycle on all vertical pairs, then one swap cycle where row A
performs odd-even (or even-odd) swaps while row B simultaneously performs
the complementary parity::

    for k in range(N):
        start = k % 2
        CPHASE(A_i, B_i)    for all i
        SWAP(A_i, A_i+1)    for i = start, start+2, ...
        SWAP(B_i, B_i+1)    for i = 1-start, 3-start, ...

After ``N`` iterations (``2N`` cycles) every top-row occupant has met every
bottom-row occupant exactly once, each row's occupants end reversed, and —
crucially for the grid composition — no occupant ever leaves its row.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from .base import GATE, SWAP, Action, AtaPattern


class BipartitePattern(AtaPattern):
    """Bipartite ATA between two parallel physical rows of equal length.

    Requires couplings ``(row_a[i], row_a[i+1])``, ``(row_b[i], row_b[i+1])``
    and the vertical rungs ``(row_a[i], row_b[i])``.
    """

    def __init__(self, row_a: Sequence[int], row_b: Sequence[int]) -> None:
        if len(row_a) != len(row_b):
            raise ValueError("bipartite pattern rows must have equal length")
        overlap = set(row_a) & set(row_b)
        if overlap:
            raise ValueError(f"rows share qubits: {sorted(overlap)}")
        self.row_a = list(row_a)
        self.row_b = list(row_b)

    def qubits(self) -> List[int]:
        return self.row_a + self.row_b

    def cycles(self) -> Iterator[List[Action]]:
        a, b = self.row_a, self.row_b
        n = len(a)
        for k in range(n):
            start = k % 2
            yield [(GATE, a[i], b[i]) for i in range(n)]
            swaps: List[Action] = [
                (SWAP, a[i], a[i + 1]) for i in range(start, n - 1, 2)]
            swaps += [
                (SWAP, b[i], b[i + 1]) for i in range(1 - start, n - 1, 2)]
            yield swaps

    def __repr__(self) -> str:
        return f"BipartitePattern(n={len(self.row_a)})"
