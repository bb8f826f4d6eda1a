"""Shared routing helpers for the baseline compilers.

``route_and_execute`` is defined next to ``greedy_completion`` in
:mod:`repro.ata.executor`, which runs it per residual pair, and is
re-exported here.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..arch.coupling import CouplingGraph
from ..ata.executor import route_and_execute as route_and_execute
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


def mapping_cost(coupling: CouplingGraph, mapping: Mapping,
                 problem: ProblemGraph) -> int:
    """Sum of physical distances over all problem edges (2QAN's objective)."""
    dist = coupling.distance_matrix
    return int(sum(dist[mapping.physical(u), mapping.physical(v)]
                   for u, v in problem.edges))
