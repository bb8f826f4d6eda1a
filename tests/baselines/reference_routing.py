"""The per-pair shortest-path router the walk's router must reproduce.

A frozen copy of the loop the per-gate baselines once ran on a
``Mapping`` and a ``Circuit``: take one BFS shortest path between the
pair's homes, walk the second endpoint down it with SWAPs, then run the
gate.  Production routes the same pairs through ``Walk.complete`` on the
walk's flat placement; the differential tests in ``test_routing.py``
assert that ``greedy_completion`` and ``compile_paulihedral`` emit the
same circuit, op for op, and leave the same mapping.
"""

from typing import Iterable, Optional, Tuple

from repro.arch.coupling import CouplingGraph
from repro.baselines.paulihedral import matching_layers
from repro.compiler.mapping import degree_placement
from repro.ir.circuit import Circuit
from repro.ir.gates import Op, canonical_edge
from repro.ir.mapping import Mapping
from repro.problems.graphs import ProblemGraph


def reference_route(coupling: CouplingGraph, circuit: Circuit,
                    mapping: Mapping, pair: Tuple[int, int],
                    gamma: float = 0.0) -> None:
    """Bring a logical pair together, run its gate; mutates both."""
    lu, lv = pair
    pu, pv = mapping.physical(lu), mapping.physical(lv)
    path = coupling.shortest_path(pu, pv)
    for k in range(len(path) - 1, 1, -1):
        circuit.append(Op.swap(path[k], path[k - 1]))
        mapping.swap_physical(path[k], path[k - 1])
    circuit.append(Op.cphase(path[0], path[1], gamma,
                             tag=canonical_edge(lu, lv)))


def reference_completion(coupling: CouplingGraph, mapping: Mapping,
                         residual: Iterable[Tuple[int, int]],
                         gamma: float = 0.0) -> Tuple[Circuit, Mapping]:
    """Route ``sorted(residual)`` from a copy of ``mapping``."""
    mapping = mapping.copy()
    circuit = Circuit(coupling.n_qubits)
    for pair in sorted(residual):
        reference_route(coupling, circuit, mapping, pair, gamma)
    return circuit, mapping


def reference_paulihedral(coupling: CouplingGraph, problem: ProblemGraph,
                          gamma: float = 0.0,
                          initial_mapping: Optional[Mapping] = None
                          ) -> Tuple[Circuit, Mapping]:
    """Matching layers in order; per layer the pairs adjacent at its
    start first, then the distant ones, each routed on its own."""
    if initial_mapping is None:
        initial_mapping = degree_placement(coupling, problem)
    mapping = initial_mapping.copy()
    circuit = Circuit(coupling.n_qubits)
    for layer in matching_layers(problem):
        adjacent = []
        distant = []
        for u, v in layer:
            if coupling.has_edge(mapping.physical(u), mapping.physical(v)):
                adjacent.append((u, v))
            else:
                distant.append((u, v))
        for pair in adjacent + distant:
            reference_route(coupling, circuit, mapping, pair, gamma)
    return circuit, mapping
