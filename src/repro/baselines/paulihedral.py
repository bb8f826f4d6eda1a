"""Paulihedral-like baseline (Li et al., ASPLOS 2022) — simplified.

Paulihedral schedules Hamiltonian-simulation kernels block-wise: Pauli
strings are grouped into layers of disjoint terms and each layer is routed
onto hardware in order.  The two properties that matter for the comparison
with the regularity-aware compiler are reproduced:

* gates are processed in a fixed layer order (no global commutativity
  exploitation across the whole circuit), and
* routing is per-gate shortest-path SWAP insertion with no architecture
  structure awareness.

This yields the paper's observed behaviour: it scales to 1024 qubits (its
per-gate work is cheap), but both depth and gate count are several times
those of the structured compiler on dense inputs.
"""

from __future__ import annotations

import time
from typing import List, Optional, Set, Tuple

from ..arch.coupling import CouplingGraph
from ..ata.executor import Walk
from ..compiler.mapping import degree_placement
from ..compiler.result import CompiledResult
from ..ir.circuit import Circuit
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph


def matching_layers(problem: ProblemGraph) -> List[List[Tuple[int, int]]]:
    """Partition problem edges into maximal-matching layers.

    This models Pauli-string blocking: each layer is a set of mutually
    disjoint interactions that could run simultaneously with unlimited
    connectivity.
    """
    remaining: Set[Tuple[int, int]] = set(problem.edges)
    layers: List[List[Tuple[int, int]]] = []
    while remaining:
        used: Set[int] = set()
        layer: List[Tuple[int, int]] = []
        for u, v in sorted(remaining):
            if u in used or v in used:
                continue
            layer.append((u, v))
            used.add(u)
            used.add(v)
        remaining -= set(layer)
        layers.append(layer)
    return layers


def compile_paulihedral(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    gamma: float = 0.0,
    initial_mapping: Optional[Mapping] = None,
) -> CompiledResult:
    """Layer-ordered block scheduling with per-gate SWAP routing."""
    start = time.perf_counter()
    if initial_mapping is None:
        initial_mapping = degree_placement(coupling, problem)
    circuit = Circuit(coupling.n_qubits)
    walk = Walk(initial_mapping, problem.edges)
    sink = walk.sink(circuit, gamma)

    for layer in matching_layers(problem):
        # Within a block, adjacent gates run first (they parallelise under
        # ASAP layering); distant gates are then routed one by one.
        placement = walk.mapping()
        adjacent = []
        distant = []
        for u, v in layer:
            if coupling.has_edge(placement.physical(u),
                                 placement.physical(v)):
                adjacent.append((u, v))
            else:
                distant.append((u, v))
        walk.complete(coupling, adjacent + distant, sink)

    return CompiledResult(circuit, initial_mapping, "paulihedral",
                          time.perf_counter() - start)
