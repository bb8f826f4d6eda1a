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

from operator import itemgetter
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from ..arch.noise import NoiseModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .fastpath import GreedyFastPath

SwapCandidate = Tuple[float, int, int]  # (weight, physical u, physical v)

#: The ``matching`` knob's accepted values.
MATCHING_MODES = ("greedy", "exact")


def _link_factor(u: int, v: int, noise: Optional[NoiseModel]) -> float:
    if noise is None:
        return 1.0
    # A SWAP costs 3 CX on this link; discount by its success rate.
    return (1.0 - noise.edge_error(u, v)) ** 3


def select_swaps(
    fast: GreedyFastPath,
    busy: Set[int],
    matching: str = "greedy",
) -> List[Tuple[int, int]]:
    """Pick a disjoint set of beneficial SWAPs on idle qubits.

    ``fast`` is the run's :class:`repro.compiler.fastpath.GreedyFastPath`;
    it scores the candidate SWAPs on every idle link.  The matched SWAPs
    are then committed *sequentially*: each is re-scored against the
    current mapping and, if still beneficial, applied to it before the
    next is scored, so later choices see the effect of earlier ones.
    Without this, the two endpoints of a distant pending pair can each
    swap towards the other's old position every cycle and orbit forever.

    The kept SWAPs are already applied to ``fast.mapping`` — the
    engine's one mapping — on return.
    """
    candidates = fast.swap_candidates(busy)
    if not candidates:
        return []
    if matching == "exact":
        chosen = _exact_matching(candidates)
    else:
        chosen = _greedy_matching(candidates)
    kept: List[Tuple[int, int]] = []
    for u, v in chosen:
        if fast.benefit(u, v) > 0:
            kept.append((u, v))
            fast.move(u, v)
    return kept


def _greedy_matching(candidates: Sequence[SwapCandidate]
                     ) -> List[Tuple[int, int]]:
    # Heaviest first, ties by (u, v): the second sort is stable, and
    # stays so under reverse=True.
    ordered = sorted(candidates, key=itemgetter(1, 2))
    ordered.sort(key=itemgetter(0), reverse=True)
    chosen: List[Tuple[int, int]] = []
    used: Set[int] = set()
    for _, u, v in ordered:
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
