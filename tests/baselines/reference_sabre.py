"""The copy-and-resum SABRE router ``compile_sabre`` must reproduce.

A frozen copy of the baseline's original candidate scoring: for every
candidate SWAP it copies the whole mapping, applies the SWAP and re-sums
the distance of every front-layer and lookahead-window gate.  The
production router scores the same candidates from per-step layer sums
and the distance change of the gates on the SWAP's two occupants; the
differential test in ``test_sabre.py`` asserts the two emit the same
circuit, op for op.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.arch.coupling import CouplingGraph
from repro.ata.executor import greedy_completion
from repro.compiler.mapping import degree_placement
from repro.ir.circuit import Circuit
from repro.ir.gates import Op, canonical_edge
from repro.ir.mapping import Mapping
from repro.problems.graphs import ProblemGraph

_LOOKAHEAD_WEIGHT = 0.5
_LOOKAHEAD_SIZE = 20
_DECAY = 0.001


def reference_sabre(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    gamma: float = 0.0,
    initial_mapping: Optional[Mapping] = None,
) -> Circuit:
    """Route the fixed-order gate list; returns the circuit."""
    if initial_mapping is None:
        initial_mapping = degree_placement(coupling, problem)
    mapping = initial_mapping.copy()
    circuit = Circuit(coupling.n_qubits)
    dist = coupling.distance_matrix

    gates: List[Tuple[int, int]] = sorted(problem.edges)
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

    def executable(gate: int) -> bool:
        u, v = gates[gate]
        return coupling.has_edge(mapping.physical(u), mapping.physical(v))

    def gate_distance(gate: int, trial: Mapping) -> int:
        u, v = gates[gate]
        return int(dist[trial.physical(u), trial.physical(v)])

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
            continue

        if guard > guard_limit:
            remaining = {canonical_edge(*gates[g]) for g in front}
            remaining |= {canonical_edge(*gates[i])
                          for i in range(len(gates)) if indegree[i] > 0}
            greedy_completion(coupling, circuit, mapping, remaining, gamma)
            front.clear()
            break

        window = lookahead(front)
        best_swap, best_score = None, None
        candidate_qubits = {mapping.physical(q)
                            for g in front for q in gates[g]}
        for pu in sorted(candidate_qubits):
            for pv in coupling.neighbors(pu):
                trial = mapping.copy()
                trial.swap_physical(pu, pv)
                score = sum(gate_distance(g, trial) for g in front)
                if window:
                    score += _LOOKAHEAD_WEIGHT * sum(
                        gate_distance(g, trial) for g in window) / len(window)
                score *= max(decay[pu], decay[pv])
                key = (score, pu, pv)
                if best_score is None or key < best_score:
                    best_score = key
                    best_swap = (pu, pv)
        pu, pv = best_swap
        circuit.append(Op.swap(pu, pv))
        mapping.swap_physical(pu, pv)
        decay[pu] += _DECAY
        decay[pv] += _DECAY

    return circuit
