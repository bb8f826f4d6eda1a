"""SATMAP-like baseline (Molavi et al. 2022) — simplified.

SATMAP phrases qubit mapping and routing as MaxSAT with a swap-count
objective.  We reproduce its behavioural profile — very low gate counts,
indifferent depth, compile times well above the structured compiler but
below OLSQ — with a multi-restart search: several initial placements each
routed with unification-aware greedy routing, keeping the circuit with the
fewest CX gates.
"""

from __future__ import annotations

import random
import time

from ..arch.coupling import CouplingGraph
from ..compiler.greedy import greedy_compile
from ..compiler.mapping import degree_placement, trivial_placement
from ..compiler.result import CompiledResult
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph
from .twoqan import quadratic_initial_mapping


def compile_satmap(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    gamma: float = 0.0,
    restarts: int = 8,
    seed: int = 0,
) -> CompiledResult:
    """Gate-count-minimising multi-restart compilation."""
    start = time.perf_counter()
    rng = random.Random(seed)
    placements = [
        trivial_placement(coupling, problem),
        degree_placement(coupling, problem),
        quadratic_initial_mapping(coupling, problem, seed=seed),
    ]
    n = problem.n_vertices
    sites = list(range(coupling.n_qubits))
    for _ in range(max(0, restarts - len(placements))):
        chosen = rng.sample(sites, n)
        placements.append(Mapping(chosen, coupling.n_qubits))

    best = None
    for placement in placements:
        trace = greedy_compile(coupling, problem, placement, gamma=gamma,
                               unify_swaps=True,
                               gate_selection="greedy")
        cx = trace.circuit.cx_count(unify=True)
        if best is None or cx < best[0]:
            best = (cx, trace.circuit, placement)

    _, circuit, placement = best
    return CompiledResult(circuit, placement, "satmap",
                          time.perf_counter() - start)
