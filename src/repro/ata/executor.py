"""Pattern executor: turn an abstract ATA schedule into a compiled circuit.

The executor walks a pattern's cycles with a live logical<->physical
mapping, emits a CPHASE for every ``gate`` opportunity whose logical pair
still needs one ("skip the gates that are not in the practical circuit",
Section 5.2), emits every structural SWAP, and stops as soon as no needed
edges remain — so trailing pattern cycles cost nothing.

Any residual edges a pattern could not cover (possible only for heavy-hex
on irregular devices) are finished by :func:`greedy_completion`, keeping
the overall compilation unconditionally correct.

:func:`ata_suffix` is the ATA-prediction component of Section 6.3, built
on those two:

* **Range detector** (:func:`detect_ranges`) — split the remaining
  problem graph into connected components, map each to the minimal
  structured sub-region of the architecture (via ``pattern.restrict``),
  and merge regions that overlap.  Disjoint regions run their patterns
  in parallel (ASAP layering overlaps them automatically).
* **Pattern generator** — execute each region's pattern from the current
  mapping, skipping absent gates and stopping at the last needed one.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from ..arch.coupling import CouplingGraph
from ..ir.circuit import Circuit
from ..ir.gates import Op, canonical_edge, canonical_edges
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph
from .base import GATE, AtaPattern


def execute_pattern(
    pattern: AtaPattern,
    initial_mapping: Mapping,
    edges: Iterable[Tuple[int, int]],
    gamma: float = 0.0,
    circuit: Optional[Circuit] = None,
    n_physical: Optional[int] = None,
) -> Tuple[Circuit, Mapping, Set[Tuple[int, int]]]:
    """Run a pattern until all ``edges`` (logical pairs) are executed.

    Returns ``(circuit, final_mapping, residual_edges)``.  ``circuit`` may
    be passed in to append onto an existing prefix.
    """
    mapping = initial_mapping.copy()
    needed: Set[Tuple[int, int]] = set(canonical_edges(edges))
    if circuit is None:
        circuit = Circuit(n_physical or mapping.n_physical)
    if not needed:
        return circuit, mapping, needed

    # Remaining problem degree per logical qubit.  A SWAP whose occupants
    # are both finished (or spare) is semantically inert — every future
    # gate opportunity involving them is skipped anyway — so it is elided.
    # Unfinished qubits' trajectories are unaffected: none of *their*
    # swaps are ever skipped.
    degree: dict = {}
    for u, v in needed:  # det: ok — counts only; degree is never iterated
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1

    def active(logical) -> bool:
        return logical is not None and degree.get(logical, 0) > 0

    for cycle in pattern.iter_cycles():
        if not needed:
            break
        used: Set[int] = set()
        for action, u, v in cycle:
            if action == GATE:
                lu, lv = mapping.logical(u), mapping.logical(v)
                if lu is None or lv is None:
                    continue
                pair = canonical_edge(lu, lv)
                if pair in needed and u not in used and v not in used:
                    circuit.append(Op.cphase(u, v, gamma, tag=pair))
                    needed.discard(pair)
                    degree[lu] -= 1
                    degree[lv] -= 1
                    used.add(u)
                    used.add(v)
            else:  # structural swap
                if u in used or v in used:
                    continue
                lu, lv = mapping.logical(u), mapping.logical(v)
                if not active(lu) and not active(lv):
                    continue  # moving two finished occupants is a no-op
                circuit.append(Op.swap(u, v))
                mapping.swap_physical(u, v)
                used.add(u)
                used.add(v)
    return circuit, mapping, needed


def greedy_completion(
    coupling: CouplingGraph,
    circuit: Circuit,
    mapping: Mapping,
    residual: Set[Tuple[int, int]],
    gamma: float = 0.0,
) -> None:
    """Route any residual logical pairs with plain shortest-path SWAPs.

    Mutates ``circuit`` and ``mapping`` in place.  Intended for the rare
    leftovers of the heavy-hex two-pass schedule; correctness matters here,
    not optimality.
    """
    for pair in sorted(residual):
        lu, lv = pair
        pu, pv = mapping.physical(lu), mapping.physical(lv)
        path = coupling.shortest_path(pu, pv)
        # Walk lv's occupant down the path until adjacent to lu.
        for k in range(len(path) - 1, 1, -1):
            circuit.append(Op.swap(path[k], path[k - 1]))
            mapping.swap_physical(path[k], path[k - 1])
        circuit.append(Op.cphase(path[0], path[1], gamma, tag=pair))
    residual.clear()


def detect_ranges(
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
) -> List[Tuple[AtaPattern, Set[Tuple[int, int]]]]:
    """Regions (restricted patterns) with their edge groups, Fig 19 style.

    Overlapping regions are merged with a union-find sweep over a
    qubit-ownership map: each round costs O(total region qubits), merges
    every currently-overlapping cluster transitively, and re-restricts
    only clusters that actually grew.  Region bounding boxes only grow
    under union, so any overlap persists until merged — the result is
    the same least fixpoint the quadratic restart-on-every-merge loop
    computed, with final regions never re-restricted.
    """
    remaining = list(remaining)
    if not remaining:
        return []
    # Size the component graph by the true problem size, not the highest
    # index with a *pending* edge — the graphs are equivalent (isolated
    # vertices are omitted from components), but the problem's own vertex
    # count is the honest bound and cannot be invalidated by whichever
    # qubit happens to finish its edges first.
    components = ProblemGraph(
        mapping.n_logical, remaining).connected_components()

    groups: List[Set[int]] = [set(c) for c in components]
    regions: List[AtaPattern] = [
        pattern.restrict({mapping.physical(v) for v in group})
        for group in groups]

    n = len(regions)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while True:
        owner: dict = {}
        grew: Set[int] = set()
        for i in range(n):
            if find(i) != i:
                continue
            for q in regions[i].region:
                j = find(owner.setdefault(q, i))
                if j != i:
                    # Keep the smaller original index as representative —
                    # the order the pairwise loop preserved.
                    keep, gone = (i, j) if i < j else (j, i)
                    parent[gone] = keep
                    groups[keep] |= groups[gone]
                    grew.add(keep)
                    if find(i) != i:
                        break  # region i itself was absorbed
        if not grew:
            break
        for i in sorted(grew):
            if find(i) == i:
                regions[i] = pattern.restrict(
                    {mapping.physical(v) for v in groups[i]})

    order = [i for i in range(n) if find(i) == i]
    edge_groups: List[Set[Tuple[int, int]]] = []
    for i in order:
        group = groups[i]
        edge_groups.append({e for e in remaining if e[0] in group})
    return [(regions[i], edge_group)
            for i, edge_group in zip(order, edge_groups)]


def ata_suffix(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    gamma: float = 0.0,
    use_range_detection: bool = True,
    circuit: Optional[Circuit] = None,
) -> Tuple[Circuit, Mapping]:
    """Finish the remaining edges by following the structured pattern.

    Returns the (possibly extended) circuit and the final mapping.  Ops for
    disjoint regions are appended sequentially; ASAP layering parallelises
    them, so the reported depth equals the max over regions.
    """
    if circuit is None:
        circuit = Circuit(coupling.n_qubits)
    mapping = mapping.copy()
    remaining = set(remaining)
    if not remaining:
        return circuit, mapping

    if use_range_detection:
        plan = detect_ranges(pattern, mapping, remaining)
    else:
        plan = [(pattern, set(remaining))]

    for region_pattern, edges in plan:
        _, region_mapping, residual = execute_pattern(
            region_pattern, mapping, edges, gamma=gamma, circuit=circuit)
        _absorb(mapping, region_mapping, region_pattern.region)
        if residual:
            greedy_completion(coupling, circuit, mapping, residual, gamma)
    return circuit, mapping


def _absorb(target: Mapping, source: Mapping, region) -> None:
    """Copy region-local occupancy changes from ``source`` into ``target``."""
    for physical in region:
        occupant = source.phys_to_log[physical]
        target.phys_to_log[physical] = occupant
        if occupant is not None:
            target.log_to_phys[occupant] = physical
