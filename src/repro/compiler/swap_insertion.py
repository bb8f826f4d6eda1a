"""SWAP-insertion sub-module of the greedy component — Section 6.2.

For each idle coupling we score the SWAP by how much closer it brings
logical qubits to their nearest pending gate partners, weighted by the
link's CX error when a noise model is present (Factor III, Section 5.3):
low-error links are preferred, characterising hardware variability exactly
as the paper's minimum-weight-perfect-matching formulation does.

Matching modes:

* ``"greedy"`` (default) — sort candidates by weight, take a maximal
  disjoint set; linear-time, used for large devices.
* ``"exact"`` — maximum-weight matching via networkx (the paper's MWPM on
  the benefit-weighted graph); cubic, fine below a few hundred qubits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..arch.coupling import CouplingGraph
from ..arch.noise import NoiseModel
from ..ir.mapping import Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .fastpath import GreedyFastPath

SwapCandidate = Tuple[float, int, int]  # (weight, physical u, physical v)


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


def _link_factor(u: int, v: int, noise: Optional[NoiseModel]) -> float:
    if noise is None:
        return 1.0
    # A SWAP costs 3 CX on this link; discount by its success rate.
    return (1.0 - noise.edge_error(u, v)) ** 3


def select_swaps(
    coupling: CouplingGraph,
    mapping: Mapping,
    pending: Dict[int, Set[int]],
    busy: Set[int],
    fast: GreedyFastPath,
    noise: Optional[NoiseModel] = None,
    matching: str = "greedy",
) -> List[Tuple[int, int]]:
    """Pick a disjoint set of beneficial SWAPs on idle qubits.

    Swaps are committed *sequentially* against a scratch mapping so that
    later choices see the effect of earlier ones.  Without this, the two
    endpoints of a distant pending pair can each swap towards the other's
    old position every cycle and orbit forever.

    ``fast`` is the run's :class:`repro.compiler.fastpath.GreedyFastPath`,
    kept in lockstep with ``mapping`` and ``pending`` by the caller; it
    scores the candidate SWAPs on every idle link.
    """
    candidates = fast.swap_candidates(busy)
    if not candidates:
        return []
    if matching == "exact":
        chosen = _exact_matching(candidates)
    else:
        chosen = _greedy_matching(candidates)
    return _sequential_filter(chosen, coupling, mapping, pending, noise)


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


def _greedy_matching(candidates: Sequence[SwapCandidate]
                     ) -> List[Tuple[int, int]]:
    chosen: List[Tuple[int, int]] = []
    used: Set[int] = set()
    for weight, u, v in sorted(candidates, key=lambda c: (-c[0], c[1], c[2])):
        if u in used or v in used:
            continue
        chosen.append((u, v))
        used.add(u)
        used.add(v)
    return chosen


def _exact_matching(candidates: Sequence[SwapCandidate]
                    ) -> List[Tuple[int, int]]:
    import networkx as nx

    graph = nx.Graph()
    for weight, u, v in candidates:
        graph.add_edge(u, v, weight=weight)
    matching = nx.max_weight_matching(graph)
    return [tuple(sorted(edge)) for edge in sorted(map(sorted, matching))]
