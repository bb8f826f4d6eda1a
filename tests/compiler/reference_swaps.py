"""The scalar SWAP scorer ``select_swaps`` must reproduce.

A frozen copy of the greedy engine's original SWAP re-validation: a
per-cycle cache of partner positions, the scalar nearest-pending-partner
benefit and the sequential filter that re-scores each matched SWAP
against a scratch mapping.  The candidate scan is the scalar loop the
vectorised ``GreedyFastPath.swap_candidates`` replaced.  Matching is
shared with ``repro.compiler.swap_insertion``, which the differential
test does not exercise in isolation.
"""

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.arch.coupling import CouplingGraph
from repro.arch.noise import NoiseModel
from repro.compiler.swap_insertion import (_exact_matching,
                                           _greedy_matching, _link_factor)
from repro.ir.mapping import Mapping


class _PartnerCache:
    """Per-cycle cache of each logical qubit's partner positions.

    Positions only change between cycles (or when the caller applies trial
    swaps, which invalidates explicitly), so the numpy gather per qubit is
    built once per cycle instead of once per candidate evaluation.
    """

    __slots__ = ("mapping", "pending", "_positions")

    def __init__(self, mapping: Mapping,
                 pending: Dict[int, Set[int]]) -> None:
        self.mapping = mapping
        self.pending = pending
        self._positions: Dict[int, Optional[np.ndarray]] = {}

    def partner_positions(self, logical: int) -> Optional[np.ndarray]:
        if logical in self._positions:
            return self._positions[logical]
        partners = self.pending.get(logical)
        if not partners:
            positions = None
        else:
            log_to_phys = self.mapping.log_to_phys
            positions = np.fromiter(
                (log_to_phys[p] for p in partners), dtype=np.int64,
                count=len(partners))
        self._positions[logical] = positions
        return positions

    def invalidate(self, moved_logical: int) -> None:
        """Forget entries that reference a moved qubit's position."""
        self._positions.pop(moved_logical, None)
        for partner in self.pending.get(moved_logical, ()):
            self._positions.pop(partner, None)


def swap_benefit(
    u: int,
    v: int,
    coupling: CouplingGraph,
    mapping: Mapping,
    pending: Dict[int, Set[int]],
    cache: Optional[_PartnerCache] = None,
) -> float:
    """Distance improvement of swapping (u, v), by nearest pending partner."""
    dist = coupling.distance_matrix
    if cache is None:
        cache = _PartnerCache(mapping, pending)
    benefit = 0.0
    for here, there in ((u, v), (v, u)):
        logical = mapping.logical(here)
        if logical is None:
            continue
        positions = cache.partner_positions(logical)
        if positions is None:
            continue
        benefit += int(dist[here, positions].min())
        benefit -= int(dist[there, positions].min())
    return benefit


def _sequential_filter(
    swaps: List[Tuple[int, int]],
    coupling: CouplingGraph,
    mapping: Mapping,
    pending: Dict[int, Set[int]],
    noise: Optional[NoiseModel],
) -> List[Tuple[int, int]]:
    """Re-validate each swap against the cumulative effect of earlier ones."""
    scratch = mapping.copy()
    cache = _PartnerCache(scratch, pending)
    kept: List[Tuple[int, int]] = []
    for u, v in swaps:
        if swap_benefit(u, v, coupling, scratch, pending, cache) > 0:
            kept.append((u, v))
            lu, lv = scratch.logical(u), scratch.logical(v)
            scratch.swap_physical(u, v)
            for moved in (lu, lv):
                if moved is not None:
                    cache.invalidate(moved)
    return kept


def reference_select_swaps(
    coupling: CouplingGraph,
    mapping: Mapping,
    pending: Dict[int, Set[int]],
    busy: Set[int],
    noise: Optional[NoiseModel] = None,
    matching: str = "greedy",
) -> List[Tuple[int, int]]:
    """Score every idle link, match, then filter sequentially."""
    cache = _PartnerCache(mapping, pending)
    candidates = []
    for u, v in coupling.edges:
        if u in busy or v in busy:
            continue
        benefit = swap_benefit(u, v, coupling, mapping, pending, cache)
        if benefit > 0:
            candidates.append((benefit * _link_factor(u, v, noise), u, v))
    if not candidates:
        return []
    if matching == "exact":
        chosen = _exact_matching(candidates)
    else:
        chosen = _greedy_matching(candidates)
    return _sequential_filter(chosen, coupling, mapping, pending, noise)
