"""Problem graphs and applications (QAOA, 2-local Hamiltonian simulation)."""

from .graphs import (ProblemGraph, biclique, clique, random_problem_graph,
                     regular_for_density, regular_problem_graph,
                     weighted_random_problem_graph)
from .hamiltonian import (hamiltonian_benchmarks, nnn_heisenberg_3d,
                          nnn_ising_1d, nnn_xy_2d)
from .qaoa import QaoaProblem, maxcut_expectation_energy
from .suite import WORKLOADS, make_workload, table4_instances

__all__ = [
    "ProblemGraph",
    "biclique",
    "clique",
    "random_problem_graph",
    "regular_problem_graph",
    "regular_for_density",
    "weighted_random_problem_graph",
    "QaoaProblem",
    "maxcut_expectation_energy",
    "nnn_ising_1d",
    "nnn_xy_2d",
    "nnn_heisenberg_3d",
    "hamiltonian_benchmarks",
    "WORKLOADS",
    "make_workload",
    "table4_instances",
]
