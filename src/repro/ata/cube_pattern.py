"""Clique ATA for the 3D cubic lattice — the Fig 13 generalisation.

Planes (z-slices) are the top-level units.  Two adjacent planes have a
joint Hamiltonian path — snake through the lower plane, hop the vertical
link at its last site, snake back through the upper plane — whose two
contiguous halves are exactly the two planes.  Running the line pattern
with reversal over this path therefore covers every pair inside the pair
of planes *and* exchanges their populations, so the usual unit-level
odd-even transposition over the ``nz`` planes covers all pairs in the
lattice with linear depth (~4n cycles).

This demonstrates the paper's claim that the methodology is
dimension-agnostic: the 3D solution reuses the 1D solution verbatim, two
levels up.
"""

from __future__ import annotations

from typing import List, Tuple

from ..arch.cube import plane_snake
from .paired_units import _UnitTranspositionPattern


class CubePattern(_UnitTranspositionPattern):
    """Plane-transposition schedule for an ``nx x ny x nz`` lattice."""

    def __init__(self, dims: Tuple[int, int, int]) -> None:
        self.dims = dims

    @classmethod
    def for_architecture(cls, coupling) -> "CubePattern":
        return cls(tuple(coupling.metadata["dims"]))

    def qubits(self) -> range:
        nx, ny, nz = self.dims
        return range(nx * ny * nz)

    def _n_units(self) -> int:
        return self.dims[2]

    def _pair_path(self, unit_index: int) -> List[int]:
        nx, ny, _ = self.dims
        z = unit_index
        lower = plane_snake(z, nx, ny)
        upper = plane_snake(z + 1, nx, ny)
        # The vertical link sits above the snake's last site; walk the
        # upper plane's snake backwards from that same site.
        return lower + list(reversed(upper))

    def _single_unit_path(self) -> List[int]:
        nx, ny, _ = self.dims
        return plane_snake(0, nx, ny)
