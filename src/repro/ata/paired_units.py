"""Full-clique ATA for Sycamore and hexagon — Section 3.2.

Both architectures share one composition mechanism, built on the paper's
observation that "for every two neighboring units, we can connect a line
that covers all nodes in these two units" (Fig 10(c) for Sycamore, Section
3.2.2 for hexagon):

* unit-level odd-even transposition over ``U`` units;
* when two units are paired in a round, run the **line pattern with
  reversal** over their joint Hamiltonian path.  The line pattern covers
  every pair inside the union (inter-unit and intra-unit alike), and the
  final reversal maps each unit's position set exactly onto the other's —
  a complete *unit exchange* for free.

Every adjacent unit pair exchanges every round, so unit populations follow
a full swap network: after ``U`` rounds each pair of populations has been
paired exactly once and all logical pairs are covered.  Depth ~ 4n,
linear; the paper's hand-optimised Sycamore schedule (Appendix B) reaches
2n by interleaving — DESIGN.md records the constant-factor gap.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .base import Action, AtaPattern, merge_parallel
from .line_pattern import LinePattern


class _UnitTranspositionPattern(AtaPattern):
    """Shared round structure: pair adjacent units, run pair-line ATA."""

    def _n_units(self) -> int:
        raise NotImplementedError

    def _pair_path(self, unit_index: int) -> List[int]:
        """Even-length Hamiltonian path over units ``i`` and ``i+1`` whose
        reversal exchanges the two units' position sets."""
        raise NotImplementedError

    def _single_unit_path(self) -> List[int]:
        """Chain through the single unit, when one exists (else raises)."""
        raise NotImplementedError

    def cycles(self) -> Iterator[List[Action]]:
        n_units = self._n_units()
        if n_units == 1:
            yield from LinePattern(self._single_unit_path()).cycles()
            return
        for round_index in range(n_units):
            parity = round_index % 2
            pairs = list(range(parity, n_units - 1, 2))
            if not pairs:
                continue
            yield from merge_parallel(
                [LinePattern(self._pair_path(i)).cycles() for i in pairs])


class SycamorePattern(_UnitTranspositionPattern):
    """Clique schedule for a Sycamore sub-rectangle.

    Units are the horizontal rows of :func:`repro.arch.sycamore`; the pair
    path is the zig-zag of Fig 10(c).  A Sycamore row has no internal
    couplings, so regions are always at least two rows tall
    (:meth:`restrict` widens single-row regions).
    """

    def __init__(self, cols: int, row_range: Tuple[int, int],
                 col_range: Tuple[int, int]) -> None:
        self.cols = cols  # full-architecture width, for node arithmetic
        self.row_range = row_range
        self.col_range = col_range
        if row_range[1] - row_range[0] < 1:
            raise ValueError("Sycamore pattern needs at least two rows")

    @classmethod
    def for_architecture(cls, coupling) -> "SycamorePattern":
        rows = coupling.metadata["rows"]
        cols = coupling.metadata["cols"]
        return cls(cols, (0, rows - 1), (0, cols - 1))

    def _node(self, r: int, c: int) -> int:
        return r * self.cols + c

    def qubits(self) -> Iterator[int]:
        r0, r1 = self.row_range
        c0, c1 = self.col_range
        return (self._node(r, c)
                for r in range(r0, r1 + 1)
                for c in range(c0, c1 + 1))

    def _n_units(self) -> int:
        return self.row_range[1] - self.row_range[0] + 1

    def _pair_path(self, unit_index: int) -> List[int]:
        r = self.row_range[0] + unit_index
        c0, c1 = self.col_range
        path: List[int] = []
        for c in range(c0, c1 + 1):
            if r % 2 == 0:
                path.append(self._node(r + 1, c))
                path.append(self._node(r, c))
            else:
                path.append(self._node(r, c))
                path.append(self._node(r + 1, c))
        return path

    def _single_unit_path(self) -> List[int]:
        raise ValueError("a single Sycamore row has no internal couplings")

    def restrict(self, qubits) -> "SycamorePattern":
        rows = [q // self.cols for q in qubits]
        cols_hit = [q % self.cols for q in qubits]
        r0, r1 = min(rows), max(rows)
        c0, c1 = min(cols_hit), max(cols_hit)
        if r0 == r1:  # widen: one row is internally disconnected
            if r0 > 0:
                r0 -= 1
            else:
                r1 += 1
        if (r0, r1) == self.row_range and (c0, c1) == self.col_range:
            return self
        return self._memoized_restrict(
            (r0, r1, c0, c1),
            lambda: SycamorePattern(self.cols, (r0, r1), (c0, c1)))

    def __repr__(self) -> str:
        return (f"SycamorePattern(rows={self.row_range}, "
                f"cols={self.col_range})")


class HexagonPattern(_UnitTranspositionPattern):
    """Clique schedule for a hexagon sub-rectangle.

    Units are the vertical columns of :func:`repro.arch.hexagon`; the pair
    path walks one full column, crosses the single end link, and walks the
    other (Section 3.2.2).  Row ranges are kept even-length so that every
    column pair has an end link at the top or the bottom of the range.
    """

    def __init__(self, rows: int, col_range: Tuple[int, int],
                 row_range: Tuple[int, int]) -> None:
        self.rows = rows  # full-architecture column height, for node ids
        self.col_range = col_range
        self.row_range = row_range
        if (row_range[1] - row_range[0]) % 2 == 0 and col_range[0] != col_range[1]:
            raise ValueError("hexagon pattern row range must have even length")

    @classmethod
    def for_architecture(cls, coupling) -> "HexagonPattern":
        rows = coupling.metadata["rows"]
        cols = coupling.metadata["cols"]
        return cls(rows, (0, cols - 1), (0, rows - 1))

    def _node(self, r: int, c: int) -> int:
        return c * self.rows + r

    def qubits(self) -> Iterator[int]:
        c0, c1 = self.col_range
        r0, r1 = self.row_range
        return (self._node(r, c)
                for c in range(c0, c1 + 1)
                for r in range(r0, r1 + 1))

    def _n_units(self) -> int:
        return self.col_range[1] - self.col_range[0] + 1

    def _pair_path(self, unit_index: int) -> List[int]:
        c = self.col_range[0] + unit_index
        r0, r1 = self.row_range
        if (r0 + c) % 2 == 0:  # top link exists
            first = [self._node(r, c) for r in range(r1, r0 - 1, -1)]
            second = [self._node(r, c + 1) for r in range(r0, r1 + 1)]
        elif (r1 + c) % 2 == 0:  # bottom link exists
            first = [self._node(r, c) for r in range(r0, r1 + 1)]
            second = [self._node(r, c + 1) for r in range(r1, r0 - 1, -1)]
        else:  # impossible with an even-length row range
            raise ValueError(
                f"no end link between columns {c} and {c + 1} "
                f"in rows {self.row_range}")
        return first + second

    def _single_unit_path(self) -> List[int]:
        c = self.col_range[0]
        r0, r1 = self.row_range
        return [self._node(r, c) for r in range(r0, r1 + 1)]

    def restrict(self, qubits) -> "HexagonPattern":
        cols_hit = [q // self.rows for q in qubits]
        rows_hit = [q % self.rows for q in qubits]
        c0, c1 = min(cols_hit), max(cols_hit)
        r0, r1 = min(rows_hit), max(rows_hit)
        if (r1 - r0) % 2 == 0 and c0 != c1:  # keep even length
            if r1 < self.rows - 1:
                r1 += 1
            else:
                r0 -= 1
        if (c0, c1) == self.col_range and (r0, r1) == self.row_range:
            return self
        return self._memoized_restrict(
            (c0, c1, r0, r1),
            lambda: HexagonPattern(self.rows, (c0, c1), (r0, r1)))

    def __repr__(self) -> str:
        return (f"HexagonPattern(cols={self.col_range}, "
                f"rows={self.row_range})")
