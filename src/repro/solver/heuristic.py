"""Admissible priority function for the depth-optimal solver — Section 4.2.

``pair_cost`` implements Definition 3: a lower bound on the cycles needed to
schedule *all* remaining gates touching a qubit pair ``(q_i, q_j)`` that
still has a gate between them.  With ``d`` the current physical distance,
``s = d - 1`` SWAP steps must be split between the two qubits; whichever way
the split goes, the busier qubit also has ``deg`` remaining computation
gates::

    cost(q_i, q_j) = min_{x=0..s} max(deg(q_i) + x, deg(q_j) + s - x)

(The paper's Equation 2 prints ``d - x`` for the second term, but its worked
example — Fig 15, cost(q1, q4) = 4 with deg 3, 2 and d = 3 — uses
``d - 1 - x``, which is also the mathematically correct swap split.  We
follow the example; admissibility is exercised property-style in tests.)

The minimisation has a closed form, which is what :func:`pair_cost` now
evaluates in O(1) instead of scanning all ``d`` splits: the first term
increases and the second decreases in ``x``, so the optimum sits at the
crossing point ``ceil((deg_i + deg_j + s) / 2)`` — unless one qubit is so
much busier that a boundary split wins, which clamps the result to
``max(deg_i, deg_j)``::

    cost(q_i, q_j) = max(deg_i, deg_j, ceil((deg_i + deg_j + d - 1) / 2))

``tests/solver/test_heuristic.py`` property-checks this closed form against
the original O(d) scan (kept as ``_pair_cost_legacy`` in the frozen
reference solver, ``tests/solver/reference.py``) over random
``(deg_i, deg_j, d)``.

``h(v)`` (Definition 4) is the maximum of ``pair_cost`` over all remaining
edges — a compiled circuit is at least as deep as any of its sub-circuits
(Theorem 1).  The A* engine (:mod:`repro.solver.astar`) evaluates it
incrementally, re-costing only the pairs a cycle's actions touched.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from ..exceptions import SpecificationError


def pair_cost(deg_i: int, deg_j: int, distance: int) -> int:
    """Definition 3 lower bound for one remaining pair at ``distance``."""
    if distance < 1:
        raise SpecificationError("pair with a remaining gate must have distance >= 1")
    crossing = (deg_i + deg_j + distance) // 2  # ceil((di + dj + d - 1) / 2)
    if deg_i >= crossing:
        return deg_i
    if deg_j >= crossing:
        return deg_j
    return crossing


def heuristic(
    remaining: Iterable[Tuple[int, int]],
    degrees: Dict[int, int],
    log_to_phys: Sequence[int],
    distance_matrix: np.ndarray,
) -> int:
    """``h(v)``: max pair cost over the remaining edge set (Definition 4)."""
    h = 0
    for u, v in remaining:
        d = int(distance_matrix[log_to_phys[u], log_to_phys[v]])
        cost = pair_cost(degrees[u], degrees[v], d)
        if cost > h:
            h = cost
    return h
