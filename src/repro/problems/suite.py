"""Named benchmark instances matching the paper's Section 7.1 setup.

:func:`make_workload` is the one builder for the named workload kinds in
:data:`WORKLOADS`: batch jobs, sweeps and the CLI all build their
instances through it.
"""

from __future__ import annotations

from typing import List, Tuple

from ..exceptions import SpecificationError
from .graphs import (ProblemGraph, clique, random_problem_graph,
                     regular_for_density)

#: Workload kinds :func:`make_workload` builds.
WORKLOADS = ("rand", "reg", "clique")


def make_workload(kind: str, n: int, density: float,
                  seed: int) -> ProblemGraph:
    """Paper-style workloads: ``rand`` (G(n,m)), ``reg`` (regular at the
    density-matched degree) or ``clique`` (density and seed unused)."""
    if kind == "rand":
        return random_problem_graph(n, density, seed=seed)
    if kind == "reg":
        return regular_for_density(n, density, seed=seed)
    if kind == "clique":
        return clique(n)
    raise SpecificationError(
        f"unknown workload {kind!r}; expected one of {WORKLOADS}")


def table4_instances() -> List[Tuple[str, ProblemGraph]]:
    """The tiny (n, density) pairs of Table 4 ("10-2" .. "15-4")."""
    spec = [(10, 0.2), (10, 0.3), (10, 0.4),
            (12, 0.2), (12, 0.3), (12, 0.4),
            (15, 0.2), (15, 0.4)]
    return [(f"{n}-{int(d * 10)}", random_problem_graph(n, d, seed=0))
            for n, d in spec]
