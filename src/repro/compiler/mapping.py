"""Initial placement strategies."""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional

from ..arch.coupling import CouplingGraph
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph


def trivial_placement(coupling: CouplingGraph,
                      problem: ProblemGraph) -> Mapping:
    """Logical ``i`` on physical ``i``.

    For clique inputs every placement behaves identically (Section 4,
    Discussion), so this is the default.
    """
    return Mapping.trivial(problem.n_vertices, coupling.n_qubits)


def degree_placement(coupling: CouplingGraph,
                     problem: ProblemGraph,
                     center: Optional[int] = None) -> Mapping:
    """Place high-degree problem vertices on central, well-connected qubits.

    A BFS from the architecture's most central qubit enumerates physical
    sites from the core outwards; problem vertices are assigned in
    decreasing problem-degree order.  This mirrors the placement heuristics
    of the QAIM baseline and helps the greedy router on sparse inputs.
    """
    if center is None:
        ecc = coupling.distance_matrix.max(axis=1)
        center = int(ecc.argmin())
    order = []
    seen = {center}
    queue = deque([center])
    while queue:
        q = queue.popleft()
        order.append(q)
        for nbr in coupling.neighbors(q):
            if nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    # Disconnected leftovers (shouldn't happen on our architectures).
    order.extend(q for q in range(coupling.n_qubits) if q not in seen)

    degrees = problem.degrees()
    by_degree = sorted(range(problem.n_vertices),
                       key=lambda v: (-degrees[v], v))
    log_to_phys = [0] * problem.n_vertices
    for physical, logical in zip(order, by_degree):
        log_to_phys[logical] = physical
    return Mapping(log_to_phys, coupling.n_qubits)


def noise_aware_placement(coupling: CouplingGraph,
                          problem: ProblemGraph,
                          noise) -> Mapping:
    """Grow a connected region of high-quality qubits (Factor III).

    Each physical qubit is scored by the mean success rate of its incident
    couplings times its readout fidelity.  Starting from the best qubit,
    the region grows by always absorbing the best-scoring frontier qubit,
    yielding a compact, well-calibrated patch; high-degree problem
    vertices are assigned first (as in :func:`degree_placement`).
    """
    def quality(q: int) -> float:
        edges = [1.0 - noise.edge_error(q, nbr)
                 for nbr in coupling.neighbors(q)]
        edge_quality = sum(edges) / len(edges) if edges else 0.0
        return edge_quality * (1.0 - noise.readout_error[q])

    scores = {q: quality(q) for q in range(coupling.n_qubits)}
    start = max(scores, key=lambda q: (scores[q], -q))
    chosen = [start]
    chosen_set = {start}
    frontier = set(coupling.neighbors(start))
    while len(chosen) < problem.n_vertices:
        if not frontier:  # disconnected leftovers
            remaining = [q for q in range(coupling.n_qubits)
                         if q not in chosen_set]
            frontier = {max(remaining, key=lambda q: scores[q])}
        best = max(frontier, key=lambda q: (scores[q], -q))
        frontier.discard(best)
        chosen.append(best)
        chosen_set.add(best)
        frontier.update(n for n in coupling.neighbors(best)
                        if n not in chosen_set)

    degrees = problem.degrees()
    by_degree = sorted(range(problem.n_vertices),
                       key=lambda v: (-degrees[v], v))
    log_to_phys = [0] * problem.n_vertices
    for physical, logical in zip(chosen, by_degree):
        log_to_phys[logical] = physical
    return Mapping(log_to_phys, coupling.n_qubits)


def quadratic_placement(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    iterations: Optional[int] = None,
    seed: int = 0,
    initial: Optional[Mapping] = None,
) -> Mapping:
    """Distance-minimising placement by pairwise-exchange local search.

    Starts from :func:`degree_placement` (or ``initial``) and hill-climbs
    on the summed physical distance over problem edges (the
    quadratic-assignment objective 2QAN introduced).  Each of the
    ``iterations`` proposals swaps a random logical qubit ``a`` with the
    occupant ``b`` of a random coupled neighbour and costs O(deg a +
    deg b): only the edges at ``a`` and ``b`` change length, so the move
    is scored by its exact integer cost change and kept iff that change
    is not positive.  The default budget is capped so the search stays
    effectively linear at large scale.
    """
    rng = random.Random(seed)
    mapping = (initial.copy() if initial is not None
               else degree_placement(coupling, problem))
    n = problem.n_vertices
    if iterations is None:
        iterations = min(8 * n * n, 60_000)
    if not coupling.edges:  # e.g. line(1): there is no move to try
        return mapping

    distances = coupling.distance_matrix
    # steps[pa][pb][q] = d(pb, q) - d(pa, q): how much farther site q is
    # after a move from pa to the coupled site pb.  Each row is built on
    # first use as a plain list, ~10x faster than numpy scalar indexing
    # in the tight hill-climbing loop below.
    steps: List[Dict[int, List[int]]] = [{} for _ in range(coupling.n_qubits)]
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u, v in sorted(problem.edges):
        adjacency[u].append(v)
        adjacency[v].append(u)
    adjacent = [set(nbrs) for nbrs in adjacency]
    couplings = [coupling.neighbors(q) for q in range(coupling.n_qubits)]
    log_to_phys, phys_to_log = mapping.log_to_phys, mapping.phys_to_log
    randrange, choice = rng.randrange, rng.choice

    for _ in range(iterations):
        a = randrange(n)
        pa = log_to_phys[a]
        pb = choice(couplings[pa])
        b = phys_to_log[pb]
        step = steps[pa].get(pb)
        if step is None:
            step = steps[pa][pb] = (distances[pb] - distances[pa]).tolist()
        # delta = sum over N(a) of d(pb, p(w)) - d(pa, p(w)), minus the
        # same sum over N(b).  The edge a~b keeps its length, but each
        # sum counts it as shrinking by d(pa, pb) = 1, hence the +2.
        delta = 0
        for w in adjacency[a]:
            delta += step[log_to_phys[w]]
        if b is not None:
            for w in adjacency[b]:
                delta -= step[log_to_phys[w]]
            if b in adjacent[a]:
                delta += 2
        if delta <= 0:
            log_to_phys[a] = pb
            phys_to_log[pb] = a
            phys_to_log[pa] = b
            if b is not None:
                log_to_phys[b] = pa
    return mapping
