"""Full-clique ATA for the NxM grid — the Section 3.1 composition.

The divide-and-conquer of Fig 5, built from the two sub-solutions:

* **Phase 0** — every row runs the 1xUnit line pattern simultaneously
  (covers all intra-row pairs; rows never exchange members afterwards).
* **Rounds 0..R-1** — unit-level odd-even transposition.  In round ``r``,
  each adjacent row pair of parity ``r % 2`` first runs the 2xUnit
  bipartite pattern (covers all pairs between the two row populations),
  then performs a one-cycle *unit exchange*: a SWAP on every vertical rung
  (Fig 5(b)).

Because every adjacent pair exchanges in every round, the row populations
traverse a full swap network: after R rounds every pair of populations has
been adjacent exactly once, so all inter-row logical pairs are covered.
Total cycles ~ 2*R*C + 2*C + R = 2n + O(sqrt(n)) — linear depth.  (The
paper's Appendix A merges intra-unit gates into inter-unit idle cycles to
reach 1.5n; we keep the unmerged composition and call the gap out in
DESIGN.md.)
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Sequence

from .base import GATE, SWAP, Action, AtaPattern, merge_parallel
from .bipartite_pattern import BipartitePattern
from .line_pattern import LinePattern


class _RowUnitPattern(AtaPattern):
    """A schedule over equal-width row units, restricted by sub-rectangle."""

    def __init__(self, units: Sequence[Sequence[int]]) -> None:
        widths = {len(u) for u in units}
        if len(widths) > 1:
            raise ValueError("all grid units must have equal width")
        self.units = [list(u) for u in units]

    def qubits(self) -> Iterator[int]:
        return chain.from_iterable(self.units)

    def restrict(self, qubits) -> "_RowUnitPattern":
        """Minimal sub-rectangle of units containing ``qubits``.

        Qubits outside the units are ignored; with none inside, the
        pattern itself.
        """
        cells = getattr(self, "_cells", None)
        if cells is None:  # each unit qubit's (row, column)
            cells = {q: (r, c) for r, unit in enumerate(self.units)
                     for c, q in enumerate(unit)}
            self._cells = cells
        hits = [cells[q] for q in qubits if q in cells]
        if not hits:
            return self
        rows, cols = zip(*hits)
        r0, r1 = min(rows), max(rows)
        c0, c1 = min(cols), max(cols)
        if (r0 == 0 and c0 == 0 and r1 == len(self.units) - 1
                and c1 == len(self.units[0]) - 1):
            return self  # full span: keep the cycle-cached instance
        return self._memoized_restrict(
            (r0, r1, c0, c1),
            lambda: type(self)(
                [self.units[r][c0:c1 + 1] for r in range(r0, r1 + 1)]))


class GridCliquePattern(_RowUnitPattern):
    """Clique compilation schedule for a grid given as a list of row units.

    ``units[r][c]`` must be coupled to ``units[r][c+1]`` (row chains) and to
    ``units[r+1][c]`` (vertical rungs).  :func:`repro.arch.grid` provides
    exactly this in its metadata.
    """

    def cycles(self) -> Iterator[List[Action]]:
        rows = self.units
        n_rows = len(rows)
        width = len(rows[0]) if rows else 0
        if width >= 2:
            yield from merge_parallel(
                [LinePattern(row).cycles() for row in rows])
        if n_rows < 2:
            return
        for round_index in range(n_rows):
            parity = round_index % 2
            pairs = list(range(parity, n_rows - 1, 2))
            if not pairs:
                continue
            yield from merge_parallel(
                [BipartitePattern(rows[i], rows[i + 1]).cycles()
                 for i in pairs])
            yield [(SWAP, rows[i][c], rows[i + 1][c])
                   for i in pairs for c in range(width)]

    def __repr__(self) -> str:
        width = len(self.units[0]) if self.units else 0
        return f"GridCliquePattern({len(self.units)}x{width})"


class OptimizedGridPattern(_RowUnitPattern):
    """The Appendix-A merged grid schedule — ~1.5n cycles.

    Every adjacent row pair runs the 2xUnit bipartite dynamics
    *simultaneously* on shared intra-row swap layers: at block ``k`` row
    ``r`` swaps with parity ``(r + k) % 2``, so each adjacent pair sees
    complementary parities — exactly the Fig 9 requirement — and one swap
    cycle serves all pairs at once.  A block is three cycles:

    1. compute on even vertical pairs (rows (0,1), (2,3), ...),
    2. compute on odd vertical pairs (rows (1,2), (3,4), ...),
    3. one shared intra-row swap cycle.

    After ``C`` blocks every currently-adjacent row pair has completed
    bipartite all-to-all.  A *placement transition* (two unit-exchange
    swap cycles, even pairs then odd pairs) advances the row populations
    two transposition rounds, and ``ceil(R/2)`` placements make every pair
    of populations adjacent at some placement (verified exhaustively in
    tests).  Because population trajectories are ballistic, every row
    visits a boundary (top or bottom) for exactly one placement; boundary
    rows are vertically idle in one phase per block, and the schedule
    offers their intra-row gate opportunities there (Optimization II's
    "red gates"), completing intra-row coverage for free.

    Total: ``ceil(R/2) * (3C + 2)`` ≈ 1.5n cycles — the paper's 25%
    improvement over the 2n snake.
    """

    def cycles(self) -> Iterator[List[Action]]:
        rows = self.units
        n_rows = len(rows)
        width = len(rows[0]) if rows else 0
        if n_rows == 1:
            yield from LinePattern(rows[0]).cycles()
            return
        if width == 1:
            column = [row[0] for row in rows]
            yield from LinePattern(column).cycles()
            return

        even_pairs = list(range(0, n_rows - 1, 2))
        odd_pairs = list(range(1, n_rows - 1, 2))
        # Rows with no vertical partner in a phase (always row 0 in the
        # odd phase; the last row in one of the two).
        idle_in_even = [n_rows - 1] if n_rows % 2 == 1 else []
        idle_in_odd = [0] + ([n_rows - 1] if n_rows % 2 == 0 else [])

        n_placements = (n_rows + 1) // 2
        for placement in range(n_placements):
            for k in range(width):
                yield self._compute_cycle(even_pairs, idle_in_even, k)
                yield self._compute_cycle(odd_pairs, idle_in_odd, k)
                swaps: List[Action] = []
                for r in range(n_rows):
                    parity = (r + k) % 2
                    swaps.extend(
                        (SWAP, rows[r][i], rows[r][i + 1])
                        for i in range(parity, width - 1, 2))
                yield swaps
            if placement < n_placements - 1:
                yield [(SWAP, rows[r][c], rows[r + 1][c])
                       for r in even_pairs for c in range(width)]
                yield [(SWAP, rows[r][c], rows[r + 1][c])
                       for r in odd_pairs for c in range(width)]

    def _compute_cycle(self, pairs: List[int], idle_rows: List[int],
                       k: int) -> List[Action]:
        rows = self.units
        width = len(rows[0])
        cycle: List[Action] = []
        for r in pairs:
            cycle.extend((GATE, rows[r][c], rows[r + 1][c])
                         for c in range(width))
        for r in idle_rows:
            parity = (r + k) % 2
            cycle.extend((GATE, rows[r][i], rows[r][i + 1])
                         for i in range(parity, width - 1, 2))
        return cycle

    def _compiled_plan(self):
        """(distinct cycles, schedule indices) for the schedule walk.

        ``repro.ata.executor.compiled_cycles`` converts and flags each
        distinct cycle once.

        Cycle content depends on ``k`` and the placement index only
        through ``k % 2``, so the whole ``ceil(R/2) * (3C + 2)`` schedule
        is a replay of eight distinct cycles: the two compute phases and
        the shared swap layer at either parity, plus the two placement
        exchanges.
        """
        rows = self.units
        n_rows = len(rows)
        width = len(rows[0]) if rows else 0
        if n_rows == 1:
            return LinePattern(rows[0])._compiled_plan()
        if width == 1:
            return LinePattern([row[0] for row in rows])._compiled_plan()

        even_pairs = list(range(0, n_rows - 1, 2))
        odd_pairs = list(range(1, n_rows - 1, 2))
        idle_in_even = [n_rows - 1] if n_rows % 2 == 1 else []
        idle_in_odd = [0] + ([n_rows - 1] if n_rows % 2 == 0 else [])

        def swap_cycle(k: int) -> List[Action]:
            swaps: List[Action] = []
            for r in range(n_rows):
                parity = (r + k) % 2
                swaps.extend((SWAP, rows[r][i], rows[r][i + 1])
                             for i in range(parity, width - 1, 2))
            return swaps

        distinct = [
            self._compute_cycle(even_pairs, idle_in_even, 0),
            self._compute_cycle(even_pairs, idle_in_even, 1),
            self._compute_cycle(odd_pairs, idle_in_odd, 0),
            self._compute_cycle(odd_pairs, idle_in_odd, 1),
            swap_cycle(0),
            swap_cycle(1),
            [(SWAP, rows[r][c], rows[r + 1][c])
             for r in even_pairs for c in range(width)],
            [(SWAP, rows[r][c], rows[r + 1][c])
             for r in odd_pairs for c in range(width)],
        ]
        schedule: List[int] = []
        n_placements = (n_rows + 1) // 2
        for placement in range(n_placements):
            for k in range(width):
                parity = k % 2
                schedule.extend((parity, 2 + parity, 4 + parity))
            if placement < n_placements - 1:
                schedule.extend((6, 7))
        return distinct, schedule

    def __repr__(self) -> str:
        width = len(self.units[0]) if self.units else 0
        return f"OptimizedGridPattern({len(self.units)}x{width})"
