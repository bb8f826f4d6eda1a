"""Structured all-to-all (ATA) swap-network patterns — Section 3.

:func:`get_pattern` maps an architecture to its clique schedule;
:func:`repro.ata.executor.execute_pattern` turns a schedule into a circuit
for an arbitrary (sub-clique) problem graph, and
:func:`repro.ata.executor.ata_suffix` finishes a partly-compiled one
region by region (Section 6.3).  Both are one walk of the schedule
(:class:`repro.ata.executor.Walk`) fed to a circuit; candidate scoring
(:mod:`repro.ata.simulate`) feeds the same walk to a metric tracker.
"""

from .base import GATE, SWAP, Action, AtaPattern, merge_parallel, pattern_length
from .bipartite_pattern import BipartitePattern
from .cube_pattern import CubePattern
from .executor import ata_suffix, execute_pattern, greedy_completion
from .grid_pattern import GridCliquePattern, OptimizedGridPattern
from .heavyhex_pattern import HeavyHexPattern
from .line_pattern import LinePattern
from .paired_units import HexagonPattern, SycamorePattern
from .registry import get_pattern, snake_pattern

__all__ = [
    "Action",
    "GATE",
    "SWAP",
    "AtaPattern",
    "merge_parallel",
    "pattern_length",
    "LinePattern",
    "BipartitePattern",
    "GridCliquePattern",
    "OptimizedGridPattern",
    "CubePattern",
    "SycamorePattern",
    "HexagonPattern",
    "HeavyHexPattern",
    "get_pattern",
    "snake_pattern",
    "execute_pattern",
    "ata_suffix",
    "greedy_completion",
]
