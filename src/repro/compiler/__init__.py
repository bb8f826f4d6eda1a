"""The hybrid compiler — Sections 5 and 6 (Fig 18).

The greedy engine and the placements live here; the ATA-suffix
predictor is :func:`repro.ata.ata_suffix`, and the staged workflow that
composes them — candidate pool and cost-F selector included — is the
pass pipeline in :mod:`repro.pipeline`.  :func:`compile_qaoa` is the
thin facade over its method registry.
"""

from .framework import compile_qaoa
from .greedy import GreedyTrace, Snapshot, greedy_compile, replay_snapshots
from .mapping import (degree_placement, noise_aware_placement,
                      quadratic_placement, trivial_placement)
from .result import CompiledResult
from .scheduling import select_gates
from .swap_insertion import select_swaps

__all__ = [
    "compile_qaoa",
    "CompiledResult",
    "greedy_compile",
    "GreedyTrace",
    "Snapshot",
    "replay_snapshots",
    "select_gates",
    "select_swaps",
    "trivial_placement",
    "degree_placement",
    "quadratic_placement",
    "noise_aware_placement",
]
