"""Depth-optimal solver for small instances (Section 4).

:func:`solve_depth_optimal` is the engine (A* / IDA* over bitmask states
with an incremental heuristic — see :mod:`repro.solver.astar`).  The
frozen pre-refactor implementation it is cross-checked against lives in
the test-suite (``tests/solver/reference.py``).
"""

from .astar import (STRATEGIES, SolverResult, SolverStats,
                    solve_depth_optimal)
from .heuristic import heuristic, pair_cost

__all__ = [
    "solve_depth_optimal",
    "SolverResult",
    "SolverStats",
    "STRATEGIES",
    "heuristic",
    "pair_cost",
]
