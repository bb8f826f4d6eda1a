"""The pre-refactor depth-optimal A* solver, frozen as a test oracle.

This is the original :mod:`repro.solver.astar` implementation, kept
unchanged in behaviour (same transition system, same O(d) Definition-3
scan, same full power-set cycle enumeration, same ``frozenset`` state
keys) so that ``test_invariants.py`` can cross-check that the fast
solver returns identical depths on the paper's discovery instances and
expands at least 3x fewer nodes on the grid, and ``test_heuristic.py``
can check the closed-form pair cost against the original scan.

Its transition helpers (``_invert``, ``_candidate_actions``,
``_conflict_free_subsets``) live in :mod:`repro.baselines.olsq`, whose
beam search expands the same subsets; olsq's golden fixtures pin them.

Do not optimize this module — its slowness *is* the baseline.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.coupling import CouplingGraph
from repro.baselines.olsq import (Action, _candidate_actions,
                                  _conflict_free_subsets, _invert)
from repro.exceptions import SolverError, SpecificationError
from repro.ir.circuit import Circuit
from repro.ir.gates import Op, canonical_edge, canonical_edges
from repro.ir.mapping import Mapping
from repro.solver.astar import SolverResult, SolverStats

_StateKey = Tuple[Tuple[Optional[int], ...], FrozenSet[Tuple[int, int]]]


def _pair_cost_legacy(deg_i: int, deg_j: int, distance: int) -> int:
    """The original O(d) Definition-3 scan (the closed form's test oracle)."""
    if distance < 1:
        raise SpecificationError("pair with a remaining gate must have distance >= 1")
    swaps_needed = distance - 1
    best: Optional[int] = None
    for x in range(swaps_needed + 1):
        cost = max(deg_i + x, deg_j + swaps_needed - x)
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best


def solve_depth_optimal_reference(
    coupling: CouplingGraph,
    edges: Sequence[Tuple[int, int]],
    initial_mapping: Optional[Mapping] = None,
    gamma: float = 0.0,
    max_nodes: int = 500_000,
    prune_unhelpful_swaps: bool = True,
    use_heuristic: bool = True,
    minimize_swaps: bool = False,
) -> SolverResult:
    """The historical solver; see :func:`repro.solver.solve_depth_optimal`
    for parameter semantics (this baseline has no ``strategy`` knob)."""
    required = frozenset(canonical_edges(edges))
    n_logical = 1 + max((q for e in sorted(required) for q in e), default=0)
    if initial_mapping is None:
        initial_mapping = Mapping.trivial(n_logical, coupling.n_qubits)
    mapping = initial_mapping

    dist = coupling.distance_matrix
    hw_edges = sorted(coupling.edges)

    # Node bookkeeping: states keyed by (occupancy, remaining edge set).
    start_key: _StateKey = (mapping.as_tuple(), required)
    best_g: Dict[_StateKey, int] = {start_key: 0}
    parents: Dict[_StateKey, Tuple[Optional[_StateKey],
                                   Tuple[Action, ...]]] = {
        start_key: (None, ())}

    # Lexicographic (depth, swaps) objective via scaled costs: each cycle
    # costs SCALE plus its swap count; swaps per cycle < SCALE, so depth
    # dominates.  SCALE = 1 recovers plain depth optimisation.
    scale = coupling.n_qubits + 1 if minimize_swaps else 1

    tie = count()
    start_h = _h(required, mapping.log_to_phys, dist) if use_heuristic else 0
    queue: List[Tuple[int, int, int, _StateKey]] = [
        (start_h * scale, 0, next(tie), start_key)]
    expanded = 0

    while queue:
        _f, g, _, key = heapq.heappop(queue)
        occupancy, remaining = key
        if g > best_g.get(key, g):
            continue
        if not remaining:
            circuit, n_cycles = _reconstruct(key, parents,
                                             coupling.n_qubits, gamma)
            return SolverResult(
                circuit=circuit,
                depth=n_cycles,
                nodes_expanded=expanded,
                initial_mapping=initial_mapping,
                stats=SolverStats(strategy="reference",
                                  nodes_expanded=expanded),
            )
        expanded += 1
        if expanded > max_nodes:
            raise SolverError(
                f"A* exceeded its node budget of {max_nodes}; "
                f"instance too large for the optimal solver")

        log_to_phys = _invert(occupancy, initial_mapping.n_logical)
        actions = _candidate_actions(
            hw_edges, occupancy, remaining, log_to_phys, dist,
            prune_unhelpful_swaps)

        for action_set in _conflict_free_subsets(actions):
            new_occupancy = list(occupancy)
            new_remaining = set(remaining)
            n_swaps = 0
            for action, u, v in action_set:
                if action == "gate":
                    lu, lv = new_occupancy[u], new_occupancy[v]
                    assert lu is not None and lv is not None
                    new_remaining.discard(canonical_edge(lu, lv))
                else:
                    new_occupancy[u], new_occupancy[v] = (
                        new_occupancy[v], new_occupancy[u])
                    n_swaps += 1
            child_key: _StateKey = (tuple(new_occupancy),
                                    frozenset(new_remaining))
            child_g = g + scale + (n_swaps if minimize_swaps else 0)
            if child_g >= best_g.get(child_key, child_g + 1):
                continue
            best_g[child_key] = child_g
            parents[child_key] = (key, tuple(action_set))
            if use_heuristic:
                child_l2p = _invert(child_key[0], initial_mapping.n_logical)
                child_h = _h(child_key[1], child_l2p, dist)
            else:
                child_h = 0
            heapq.heappush(
                queue,
                (child_g + child_h * scale, child_g, next(tie), child_key))

    raise SolverError("search space exhausted without finding a schedule")


def _h(remaining: FrozenSet[Tuple[int, int]], log_to_phys: Sequence[int],
       dist: np.ndarray) -> int:
    degrees: Dict[int, int] = {}
    for u, v in sorted(remaining):
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    h = 0
    for u, v in sorted(remaining):
        cost = _pair_cost_legacy(degrees[u], degrees[v],
                                 int(dist[log_to_phys[u], log_to_phys[v]]))
        if cost > h:
            h = cost
    return h


def _reconstruct(
    key: _StateKey,
    parents: Dict[_StateKey, Tuple[Optional[_StateKey], Tuple[Action, ...]]],
    n_physical: int,
    gamma: float,
) -> Tuple[Circuit, int]:
    cycles: List[Tuple[Action, ...]] = []
    node = key
    while True:
        parent, actions = parents[node]
        if parent is None:
            break
        cycles.append(actions)
        node = parent
    cycles.reverse()

    circuit = Circuit(n_physical)
    occupancy: List[Optional[int]] = list(node[0])  # root occupancy
    for action_set in cycles:
        for action, u, v in action_set:
            if action == "gate":
                lu, lv = occupancy[u], occupancy[v]
                assert lu is not None and lv is not None
                circuit.append(
                    Op.cphase(u, v, gamma, tag=canonical_edge(lu, lv)))
        for action, u, v in action_set:
            if action == "swap":
                circuit.append(Op.swap(u, v))
                occupancy[u], occupancy[v] = occupancy[v], occupancy[u]
    return circuit, len(cycles)
