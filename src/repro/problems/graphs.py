"""Problem graphs — the inputs to QAOA / 2-local Hamiltonian compilation.

A problem graph has one vertex per logical qubit and one edge per two-qubit
permutable operator (Section 2.1, Fig 2).  Benchmarks follow Section 7.1:
NetworkX random graphs at a target density and random regular graphs at a
target degree.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..ir.gates import canonical_edge, canonical_edges


class ProblemGraph:
    """Immutable undirected problem graph over ``n_vertices`` logical qubits.

    ``weights`` (optional) attaches a real weight to each edge — weighted
    MaxCut, where the weight scales both the CPHASE angle and the edge's
    contribution to the cut value.  ``weights=None`` is the unweighted
    problem and every weight reads as 1.0; nothing downstream changes.
    """

    def __init__(self, n_vertices: int,
                 edges: Iterable[Tuple[int, int]],
                 name: str = "",
                 weights: Optional[Mapping[Tuple[int, int], float]] = None,
                 ) -> None:
        if n_vertices <= 0:
            raise ValueError("problem graph needs at least one vertex")
        self.n_vertices = n_vertices
        self.edges: FrozenSet[Tuple[int, int]] = canonical_edges(edges)
        for u, v in self.edges:
            if u == v or not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"invalid edge ({u}, {v})")
        self.weights: Optional[Dict[Tuple[int, int], float]] = None
        if weights is not None:
            canon = {canonical_edge(*edge): float(w)
                     for edge, w in weights.items()}
            missing = self.edges - canon.keys()
            if missing:
                raise ValueError(
                    f"weights missing for edges {sorted(missing)}")
            stray = canon.keys() - self.edges
            if stray:
                raise ValueError(
                    f"weights given for non-edges {sorted(stray)}")
            self.weights = canon
        self.name = name or f"graph-{n_vertices}-{len(self.edges)}"

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def weight(self, u: int, v: int) -> float:
        """The edge's weight (1.0 for every edge of an unweighted graph)."""
        edge = canonical_edge(u, v)
        if edge not in self.edges:
            raise KeyError(f"({u}, {v}) is not an edge")
        if self.weights is None:
            return 1.0
        return self.weights[edge]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def density(self) -> float:
        if self.n_vertices < 2:
            return 0.0
        max_edges = self.n_vertices * (self.n_vertices - 1) / 2
        return self.n_edges / max_edges

    def degrees(self) -> Dict[int, int]:
        degs = {v: 0 for v in range(self.n_vertices)}
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def neighbors(self, v: int) -> List[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def connected_components(self) -> List[FrozenSet[int]]:
        """Components of the *edge-supported* subgraph; isolated vertices
        (no pending gates) are omitted."""
        return edge_components(self.n_vertices, self.edges)

    def __repr__(self) -> str:
        tail = ", weighted" if self.is_weighted else ""
        return (f"ProblemGraph({self.name!r}, n={self.n_vertices}, "
                f"edges={self.n_edges}{tail})")


def edge_components(n_vertices: int,
                    edges: Iterable[Tuple[int, int]]) -> List[FrozenSet[int]]:
    """Connected components of the graph ``edges`` span on vertices
    ``0..n_vertices-1``; vertices on no edge are omitted.

    ``edges`` must already be valid, canonical pairs: nothing is checked.
    Components are listed in the order their first vertex appears in
    ``edges``, and each is filled in first-appearance order.
    """
    parent = list(range(n_vertices))
    seen = [False] * n_vertices
    order: List[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if not seen[u]:
            seen[u] = True
            order.append(u)
        if not seen[v]:
            seen[v] = True
            order.append(v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: Dict[int, set] = {}
    for vertex in order:
        groups.setdefault(find(vertex), set()).add(vertex)
    return [frozenset(g) for g in groups.values()]


def clique(n_vertices: int) -> ProblemGraph:
    """The special case of Definition 1: one gate between every qubit pair."""
    edges = [(i, j) for i in range(n_vertices) for j in range(i + 1, n_vertices)]
    return ProblemGraph(n_vertices, edges, name=f"clique-{n_vertices}")


def biclique(a: int, b: int) -> ProblemGraph:
    """Complete bipartite graph ``K_{a,b}``: one gate between every
    cross-side pair.  This is the workload the paper uses to discover the
    row-exchange pattern on 2xN grids (Section 5), and the solver
    benchmark's grid instance."""
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return ProblemGraph(a + b, edges, name=f"biclique-{a}x{b}")


def random_problem_graph(n_vertices: int, density: float,
                         seed: int = 0) -> ProblemGraph:
    """Erdős–Rényi G(n, m) graph with ``m = density * n*(n-1)/2`` edges."""
    import networkx as nx

    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    max_edges = n_vertices * (n_vertices - 1) // 2
    m = int(round(density * max_edges))
    graph = nx.gnm_random_graph(n_vertices, m, seed=seed)
    return ProblemGraph(n_vertices, graph.edges(),
                        name=f"rand-{n_vertices}-{density:g}-s{seed}")


def regular_problem_graph(n_vertices: int, degree: int,
                          seed: int = 0) -> ProblemGraph:
    """Random regular graph; ``degree * n`` must be even (NetworkX rule)."""
    import networkx as nx

    if (degree * n_vertices) % 2 != 0:
        degree += 1
    graph = nx.random_regular_graph(degree, n_vertices, seed=seed)
    return ProblemGraph(n_vertices, graph.edges(),
                        name=f"reg-{n_vertices}-d{degree}-s{seed}")


def weighted_random_problem_graph(n_vertices: int, density: float,
                                  seed: int = 0,
                                  low: float = 0.2,
                                  high: float = 1.0) -> ProblemGraph:
    """Weighted MaxCut instance: the :func:`random_problem_graph` topology
    with uniform ``[low, high)`` edge weights from the same seed."""
    import random as _random

    base = random_problem_graph(n_vertices, density, seed=seed)
    rng = _random.Random(seed)
    weights = {edge: low + (high - low) * rng.random()
               for edge in sorted(base.edges)}
    return ProblemGraph(n_vertices, base.edges,
                        name=f"wrand-{n_vertices}-{density:g}-s{seed}",
                        weights=weights)


def regular_for_density(n_vertices: int, density: float,
                        seed: int = 0) -> ProblemGraph:
    """Regular graph whose density is close to ``density`` (Section 7.1:
    'set the density of regular graph close to 0.3 or 0.5 by varying the
    degree of each vertex')."""
    degree = max(1, int(round(density * (n_vertices - 1))))
    if degree >= n_vertices:
        degree = n_vertices - 1
    return regular_problem_graph(n_vertices, degree, seed=seed)
