"""2QAN-like baseline (Lao & Browne, ISCA 2022) — simplified.

2QAN's two distinguishing components are reproduced:

* **Quadratic-cost initial mapping** — a local search over placements
  minimising the summed physical distance of all problem edges.  The
  search evaluates ``iterations`` swap moves, each costing
  O(min(deg, n - 1 - deg)) for each of the two logical qubits it
  exchanges (a dense vertex is scored through its non-neighbours), or
  O(1) for a long sum once the search settles (see
  :func:`~repro.compiler.mapping.quadratic_placement`).  The
  real 2QAN becomes intractable beyond ~128 qubits because its search
  grows quadratically with the qubit count; our default budget of
  ``20 * n^2`` moves scales the same way (capped so tests stay fast).
* **Unitary unification** — when a routing SWAP lands on a pair that still
  needs a gate, gate and SWAP merge into one 3-CX block.

Routing reuses the greedy engine with unification enabled; no architecture
regularity is exploited, matching the real tool.
"""

from __future__ import annotations

import time
from typing import Optional

from ..arch.coupling import CouplingGraph
from ..compiler.greedy import greedy_compile
from ..compiler.mapping import quadratic_placement
from ..compiler.result import CompiledResult
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph


def quadratic_initial_mapping(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    iterations: Optional[int] = None,
    seed: int = 0,
) -> Mapping:
    """Distance-minimising placement by pairwise-exchange local search.

    2QAN's larger search budget: the real tool explores placements with a
    quadratic-cost solver, which is what makes it strong at small scale
    and slow beyond ~128 qubits.
    """
    n = problem.n_vertices
    if iterations is None:
        iterations = min(20 * n * n, 200_000)
    return quadratic_placement(coupling, problem, iterations=iterations,
                               seed=seed)


def compile_twoqan(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    gamma: float = 0.0,
    seed: int = 0,
    iterations: Optional[int] = None,
) -> CompiledResult:
    """Quadratic placement search + unification-aware greedy routing."""
    start = time.perf_counter()
    initial_mapping = quadratic_initial_mapping(
        coupling, problem, iterations=iterations, seed=seed)
    trace = greedy_compile(coupling, problem, initial_mapping,
                           gamma=gamma,
                           unify_swaps=True, gate_selection="greedy")
    return CompiledResult(trace.circuit, initial_mapping, "2qan",
                          time.perf_counter() - start)
