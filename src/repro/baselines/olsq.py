"""QAOA-OLSQ-like baseline (Tan & Cong, ICCAD 2020) — simplified.

OLSQ encodes layout synthesis as a constraint problem and asks a SAT/SMT
solver for a depth-minimal schedule; for QAOA it drops gate-dependency
constraints.  We reproduce its *behavioural* profile — near-optimal depth
at 10-15 qubits, compile times orders of magnitude above the structured
compiler, infeasible beyond toy sizes — with exact A* search where the
node budget allows and wide beam search (top-k states per depth level)
otherwise.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import islice
from typing import FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from ..arch.coupling import CouplingGraph
from ..compiler.result import CompiledResult
from ..exceptions import SolverError
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph
from ..solver.astar import solve_depth_optimal
from ..solver.heuristic import heuristic
from ..ir.circuit import Circuit
from ..ir.gates import Op, canonical_edge

Action = Tuple[str, int, int]  # ("gate"|"swap", physical u, physical v)


def compile_olsq(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    gamma: float = 0.0,
    initial_mapping: Optional[Mapping] = None,
    exact_node_budget: int = 150_000,
    beam_width: int = 400,
    children_per_state: int = 128,
) -> CompiledResult:
    """Exact depth-minimal search with a beam-search fallback."""
    start = time.perf_counter()
    if initial_mapping is None:
        initial_mapping = Mapping.trivial(problem.n_vertices,
                                          coupling.n_qubits)
    # The exact expansion enumerates every conflict-free action subset per
    # node — affordable only on genuinely tiny instances (this mirrors the
    # real OLSQ hitting a wall beyond ~15 qubits).
    tiny = problem.n_edges <= 8 and coupling.n_edges <= 8
    exact = False
    circuit = None
    if tiny:
        try:
            result = solve_depth_optimal(
                coupling, sorted(problem.edges),
                initial_mapping=initial_mapping, gamma=gamma,
                max_nodes=exact_node_budget)
            circuit = result.circuit
            exact = True
        except SolverError:
            pass
    if circuit is None:
        circuit = _beam_search(coupling, problem, initial_mapping, gamma,
                               beam_width, children_per_state)
    compiled = CompiledResult(circuit, initial_mapping, "olsq",
                              time.perf_counter() - start)
    compiled.extra["exact"] = exact
    return compiled


def _beam_search(coupling, problem, initial_mapping, gamma, beam_width,
                 children_per_state):
    """Depth-synchronous beam search with the solver's admissible h.

    Child enumeration is capped; because the subset generator emits
    action-rich combinations first, the cap keeps gate-dense candidates.
    """
    dist = coupling.distance_matrix
    hw_edges = sorted(coupling.edges)
    required = frozenset(canonical_edge(u, v) for u, v in problem.edges)

    # Beam entries: (occupancy, remaining, history, swap_count)
    start_state = (initial_mapping.as_tuple(), required, (), 0)
    beam: List[Tuple] = [start_state]
    depth = 0
    max_depth = 8 * coupling.n_qubits + 8 * len(required) + 16
    best_state = start_state
    stall = 0

    while depth < max_depth and stall < 30:
        depth += 1
        scored: List[Tuple] = []
        seen = set()
        for occupancy, remaining, history, swap_count in beam:
            log_to_phys = _invert(occupancy, initial_mapping.n_logical)
            actions = _candidate_actions(hw_edges, occupancy, remaining,
                                         log_to_phys, dist, True)
            for action_set in islice(_conflict_free_subsets(actions),
                                     children_per_state):
                new_occ = list(occupancy)
                new_rem = set(remaining)
                new_swaps = swap_count
                for action, u, v in action_set:
                    if action == "gate":
                        lu, lv = new_occ[u], new_occ[v]
                        new_rem.discard(canonical_edge(lu, lv))
                    else:
                        new_occ[u], new_occ[v] = new_occ[v], new_occ[u]
                        new_swaps += 1
                key = (tuple(new_occ), frozenset(new_rem))
                if key in seen:
                    continue
                seen.add(key)
                new_history = history + (action_set,)
                if not new_rem:
                    return _materialise(coupling, initial_mapping,
                                        new_history, gamma)
                child_l2p = _invert(key[0], initial_mapping.n_logical)
                h = heuristic(key[1], Counter(q for e in key[1] for q in e),
                              child_l2p, dist)
                # Primary: depth lower bound, then remaining work, then
                # swaps spent (OLSQ's SAT objective also bounds gates).
                scored.append((h + depth, len(new_rem), new_swaps,
                               key[0], key[1], new_history))
        if not scored:
            break
        scored.sort(key=lambda s: (s[0], s[1], s[2]))
        beam = [(occ, rem, hist, swaps)
                for _, _, swaps, occ, rem, hist in scored[:beam_width]]
        leader = min(beam, key=lambda s: len(s[1]))
        if len(leader[1]) < len(best_state[1]):
            best_state = leader
            stall = 0
        else:
            stall += 1

    # Beam stalled (it can cycle through equivalent permutations): take the
    # most advanced state and finish the few leftovers by plain routing.
    from ..ata.executor import greedy_completion
    from ..ir.mapping import Mapping as _Mapping

    occupancy, remaining, history, _ = best_state
    circuit = _materialise(coupling, initial_mapping, history, gamma)
    final = _Mapping.__new__(_Mapping)
    final.phys_to_log = list(occupancy)
    final.log_to_phys = [0] * initial_mapping.n_logical
    for phys, logical in enumerate(occupancy):
        if logical is not None:
            final.log_to_phys[logical] = phys
    greedy_completion(coupling, circuit, final, set(remaining), gamma)
    return circuit


def _materialise(coupling, initial_mapping, history, gamma) -> Circuit:
    circuit = Circuit(coupling.n_qubits)
    occupancy = list(initial_mapping.as_tuple())
    for action_set in history:
        for action, u, v in action_set:
            if action == "gate":
                lu, lv = occupancy[u], occupancy[v]
                circuit.append(
                    Op.cphase(u, v, gamma, tag=canonical_edge(lu, lv)))
        for action, u, v in action_set:
            if action == "swap":
                circuit.append(Op.swap(u, v))
                occupancy[u], occupancy[v] = occupancy[v], occupancy[u]
    return circuit


# The original solver's transition system: every conflict-free subset of
# gates and distance-reducing SWAPs.  The frozen reference A* in
# tests/solver/reference.py expands the same subsets, so golden fixtures
# of olsq's beam search pin the test oracle too.


def _invert(occupancy: Tuple[Optional[int], ...],
            n_logical: int) -> List[int]:
    log_to_phys = [0] * n_logical
    for phys, logical in enumerate(occupancy):
        if logical is not None and logical < n_logical:
            log_to_phys[logical] = phys
    return log_to_phys


def _candidate_actions(
    hw_edges: List[Tuple[int, int]],
    occupancy: Tuple[Optional[int], ...],
    remaining: FrozenSet[Tuple[int, int]],
    log_to_phys: List[int],
    dist: np.ndarray,
    prune_swaps: bool,
) -> List[Action]:
    actions: List[Action] = []
    for u, v in hw_edges:
        lu, lv = occupancy[u], occupancy[v]
        if (lu is not None and lv is not None
                and canonical_edge(lu, lv) in remaining):
            actions.append(("gate", u, v))
        if prune_swaps and not _swap_helps(u, v, occupancy, remaining,
                                           log_to_phys, dist):
            continue
        actions.append(("swap", u, v))
    return actions


def _swap_helps(
    u: int,
    v: int,
    occupancy: Tuple[Optional[int], ...],
    remaining: FrozenSet[Tuple[int, int]],
    log_to_phys: List[int],
    dist: np.ndarray,
) -> bool:
    """Does swapping (u, v) strictly reduce some remaining pair distance?"""
    for a, b in ((u, v), (v, u)):
        qubit = occupancy[a]
        if qubit is None:
            continue
        for x, y in sorted(remaining):
            if x == qubit:
                partner = y
            elif y == qubit:
                partner = x
            else:
                continue
            p = log_to_phys[partner]
            if dist[b, p] < dist[a, p]:
                return True
    return False


def _conflict_free_subsets(
        actions: List[Action]) -> Iterator[Tuple[Action, ...]]:
    """All non-empty subsets of pairwise qubit-disjoint actions."""
    n = len(actions)

    def recurse(index: int, used: FrozenSet[int],
                chosen: Tuple[Action, ...]) -> Iterator[Tuple[Action, ...]]:
        if index == n:
            if chosen:
                yield chosen
            return
        action = actions[index]
        _, u, v = action
        # With this action first (so capped consumers see rich subsets).
        if u not in used and v not in used:
            yield from recurse(index + 1, used | {u, v}, chosen + (action,))
        # Without it.
        yield from recurse(index + 1, used, chosen)

    yield from recurse(0, frozenset(), ())
