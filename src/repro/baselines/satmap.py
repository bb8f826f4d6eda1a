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
from itertools import islice
from typing import Iterator

from ..arch.coupling import CouplingGraph
from ..compiler.greedy import greedy_compile
from ..compiler.mapping import degree_placement, trivial_placement
from ..compiler.result import CompiledResult
from ..exceptions import SpecificationError
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph
from .twoqan import quadratic_initial_mapping


def _placements(coupling: CouplingGraph, problem: ProblemGraph,
                seed: int) -> Iterator[Mapping]:
    """The restarts' placements in order: trivial, degree, 2QAN's, then
    random ones drawn from ``seed``."""
    yield trivial_placement(coupling, problem)
    yield degree_placement(coupling, problem)
    yield quadratic_initial_mapping(coupling, problem, seed=seed)
    rng = random.Random(seed)
    sites = list(range(coupling.n_qubits))
    while True:
        yield Mapping(rng.sample(sites, problem.n_vertices),
                      coupling.n_qubits)


def compile_satmap(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    gamma: float = 0.0,
    restarts: int = 8,
    seed: int = 0,
) -> CompiledResult:
    """Gate-count-minimising multi-restart compilation.

    Routes each of the first ``restarts`` placements of
    :func:`_placements` and keeps the circuit with the fewest CX gates.
    """
    if (isinstance(restarts, bool) or not isinstance(restarts, int)
            or restarts < 1):
        raise SpecificationError(
            f"restarts must be a positive int, got {restarts!r}")
    start = time.perf_counter()
    best = None
    for placement in islice(_placements(coupling, problem, seed), restarts):
        trace = greedy_compile(coupling, problem, placement, gamma=gamma,
                               unify_swaps=True,
                               gate_selection="greedy")
        cx = trace.circuit.cx_count(unify=True)
        if best is None or cx < best[0]:
            best = (cx, trace.circuit, placement)

    _, circuit, placement = best
    return CompiledResult(circuit, placement, "satmap",
                          time.perf_counter() - start)
