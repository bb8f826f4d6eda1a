"""SABRE-like generic router (Li, Ding, Xie — ASPLOS 2019).

The classic qubit-mapping algorithm for *fixed-order* circuits.  Applied
to a QAOA program it deliberately ignores commutativity: gates are wired
into a dependency DAG in their textual order (two gates sharing a qubit
depend on each other), and routing only ever looks at the DAG's front
layer plus a shallow lookahead window.

This is the "previous compilation methods are designed for quantum
architectures with arbitrary connectivity" strawman of Section 1 — a
correct, widely deployed technique that leaves the permutable-operator
freedom on the table.  Including it lets the benchmarks quantify how much
of the paper's win comes from commutativity alone vs from regularity.

The lookahead window is built a whole successor layer at a time, and its
size is checked only between layers: ``_LOOKAHEAD_SIZE`` is where the
growth stops (unless the DAG runs out first), not a cap.  On 64-qubit
density-0.3 graphs (grid 8x8 and heavy-hex, seeds 0-2) 92% of routing
steps score a window larger than 20 gates (mean 33, max 54).  The
baseline's circuits are defined by this behaviour, so it stays.

Each candidate SWAP is scored from the layer sums of the current mapping
plus the distance change of the gates on its two occupants, which is
the same integer as re-summing every gate under a trial mapping.  The
window and the sums are built once per front layer: a SWAP does not
change the front, and the chosen candidate's sums are the new ones.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..arch.coupling import CouplingGraph
from ..compiler.mapping import degree_placement
from ..compiler.result import CompiledResult
from ..ir.circuit import Circuit
from ..ir.gates import Op, canonical_edge
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph

#: Weight of the lookahead window relative to the front layer.
_LOOKAHEAD_WEIGHT = 0.5
_LOOKAHEAD_SIZE = 20
#: Decay applied to recently swapped qubits to avoid ping-ponging.
_DECAY = 0.001


def compile_sabre(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    gamma: float = 0.0,
    initial_mapping: Optional[Mapping] = None,
) -> CompiledResult:
    """Route the fixed-order gate list with SABRE's heuristic search."""
    start = time.perf_counter()
    if initial_mapping is None:
        initial_mapping = degree_placement(coupling, problem)
    mapping = initial_mapping.copy()
    circuit = Circuit(coupling.n_qubits)

    gates: List[Tuple[int, int]] = sorted(problem.edges)
    # DAG: gate i depends on the latest earlier gate using each qubit.
    preds: List[Set[int]] = [set() for _ in gates]
    succs: List[Set[int]] = [set() for _ in gates]
    last_user: Dict[int, int] = {}
    for index, (u, v) in enumerate(gates):
        for q in (u, v):
            if q in last_user:
                preds[index].add(last_user[q])
                succs[last_user[q]].add(index)
            last_user[q] = index

    indegree = [len(p) for p in preds]
    front: Set[int] = {i for i, d in enumerate(indegree) if d == 0}
    decay = [1.0] * coupling.n_qubits

    rows = coupling.distance_rows
    log_to_phys = mapping.log_to_phys
    phys_to_log = mapping.phys_to_log

    def executable(gate: int) -> bool:
        u, v = gates[gate]
        return rows[log_to_phys[u]][log_to_phys[v]] == 1

    def lookahead(front_set: Set[int]) -> List[int]:
        window: List[int] = []
        frontier = sorted(front_set)
        seen = set(frontier)
        while frontier and len(window) < _LOOKAHEAD_SIZE:
            nxt: List[int] = []
            for g in frontier:
                for s in sorted(succs[g]):
                    if s not in seen:
                        seen.add(s)
                        window.append(s)
                        nxt.append(s)
            frontier = nxt
        return window

    def layer_sum(layer: Iterable[int]) -> Tuple[int, List[List[int]]]:
        """Total distance of ``layer`` and, at each physical qubit, the
        logical partners of its occupant's gates (none at a spare)."""
        total = 0
        partners: List[List[int]] = [[] for _ in range(n_physical)]
        for g in layer:
            u, v = gates[g]
            pu, pv = log_to_phys[u], log_to_phys[v]
            total += rows[pu][pv]
            partners[pu].append(v)
            partners[pv].append(u)
        return total, partners

    # The lookahead window, the partner lists and the layer sums depend
    # on the front layer alone, and SWAPs leave it as it is: they are
    # rebuilt only after gates execute (``window is None``).  A SWAP
    # moves its occupants' partner lists with them, and the sums become
    # the chosen candidate's.
    n_physical = coupling.n_qubits
    window: Optional[List[int]] = None
    front_partners: List[List[int]] = []
    window_partners: List[List[int]] = []
    front_sum = window_sum = n_window = 0
    guard = 0
    guard_limit = 60 * coupling.n_qubits + 10 * len(gates) + 200
    while front:
        guard += 1
        ready = [g for g in sorted(front) if executable(g)]
        if ready:
            for g in ready:
                u, v = gates[g]
                circuit.append(Op.cphase(mapping.physical(u),
                                         mapping.physical(v), gamma,
                                         tag=canonical_edge(u, v)))
                front.discard(g)
                for s in succs[g]:
                    indegree[s] -= 1
                    if indegree[s] == 0:
                        front.add(s)
            decay = [1.0] * coupling.n_qubits
            window = None
            continue

        if guard > guard_limit:
            from ..ata.executor import greedy_completion

            remaining = {canonical_edge(*gates[g]) for g in front}
            remaining |= {canonical_edge(*gates[i])
                          for i in range(len(gates)) if indegree[i] > 0}
            greedy_completion(coupling, circuit, mapping, remaining, gamma)
            front.clear()
            break

        if window is None:
            window = lookahead(front)
            n_window = len(window)
            front_sum, front_partners = layer_sum(front)
            window_sum, window_partners = layer_sum(window)
        # A SWAP of (pu, pv) moves only the gates on its two occupants:
        # the layer sums change by those gates' distance changes.  The
        # gate between the two occupants keeps its length and is skipped.
        best_swap, best_score = None, None
        best_sums = (front_sum, window_sum)
        candidate_qubits = {log_to_phys[q] for g in front for q in gates[g]}
        for pu in sorted(candidate_qubits):
            lu = phys_to_log[pu]
            row_u = rows[pu]
            lu_front = front_partners[pu]
            lu_window = window_partners[pu]
            decay_u = decay[pu]
            for pv in coupling.neighbors(pu):
                lv = phys_to_log[pv]
                row_v = rows[pv]
                front_after = front_sum
                window_after = window_sum
                for q in lu_front:
                    if q != lv:
                        pq = log_to_phys[q]
                        front_after += row_v[pq] - row_u[pq]
                for q in lu_window:
                    if q != lv:
                        pq = log_to_phys[q]
                        window_after += row_v[pq] - row_u[pq]
                for q in front_partners[pv]:
                    if q != lu:
                        pq = log_to_phys[q]
                        front_after += row_u[pq] - row_v[pq]
                for q in window_partners[pv]:
                    if q != lu:
                        pq = log_to_phys[q]
                        window_after += row_u[pq] - row_v[pq]
                score = front_after
                if n_window:
                    score += (_LOOKAHEAD_WEIGHT * window_after
                              / n_window)
                decay_v = decay[pv]
                score *= decay_u if decay_u >= decay_v else decay_v
                key = (score, pu, pv)
                if best_score is None or key < best_score:
                    best_score = key
                    best_swap = (pu, pv)
                    best_sums = (front_after, window_after)
        pu, pv = best_swap
        circuit.append(Op.swap(pu, pv))
        mapping.swap_physical(pu, pv)
        front_sum, window_sum = best_sums
        front_partners[pu], front_partners[pv] = (front_partners[pv],
                                                  front_partners[pu])
        window_partners[pu], window_partners[pv] = (window_partners[pv],
                                                    window_partners[pu])
        decay[pu] += _DECAY
        decay[pv] += _DECAY

    return CompiledResult(circuit, initial_mapping, "sabre",
                          time.perf_counter() - start)
