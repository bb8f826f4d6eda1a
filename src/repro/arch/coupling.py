"""Hardware coupling graphs.

A :class:`CouplingGraph` is an undirected graph over physical qubits
``0..n-1`` plus the *structural metadata* that the paper's regularity-aware
patterns exploit (row units, snake paths, the heavy-hex longest path).
Generators for each architecture live in sibling modules and attach the
metadata they guarantee.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from .._telemetry import CacheCounter, register_cache
from ..exceptions import ArchitectureError
from ..ir.gates import canonical_edge

_UNREACHABLE = np.iinfo(np.int32).max

#: Process-local memo of BFS all-pairs matrices, keyed by graph structure.
#: Re-instantiating the same architecture (a batch sweep, a worker process
#: handling many jobs) reuses the O(V*E) computation; the cached array is
#: frozen read-only so instances can share it safely.
_DISTANCE_CACHE: Dict[tuple, np.ndarray] = {}
_DISTANCE_CACHE_CAP = 128
#: Held to evict, insert or clear: ``thread``-executor jobs share the memo.
_DISTANCE_LOCK = threading.Lock()


def _clear_distances() -> None:
    with _DISTANCE_LOCK:
        _DISTANCE_CACHE.clear()


_DISTANCE_COUNTER = register_cache(
    "distance_matrix", CacheCounter("distance_matrix"),
    lambda: len(_DISTANCE_CACHE), _clear_distances)


def distance_cache_info() -> Dict[str, int]:
    """Hits/misses/size of the process-local distance-matrix cache."""
    info = _DISTANCE_COUNTER.snapshot()
    info["size"] = len(_DISTANCE_CACHE)
    return info


def clear_distance_cache() -> None:
    """Drop every memoized distance matrix and zero the counters."""
    _clear_distances()
    _DISTANCE_COUNTER.reset()


class CouplingGraph:
    """Undirected hardware connectivity with cached all-pairs distances.

    Parameters
    ----------
    n_qubits:
        Number of physical qubits (ids ``0..n_qubits-1``).
    edges:
        Undirected couplings.
    name:
        Human-readable identifier (e.g. ``"heavyhex-6x10"``).
    kind:
        Architecture family: ``line``, ``grid``, ``sycamore``, ``hexagon``,
        ``heavyhex`` or ``generic``.  The ATA pattern registry dispatches on
        this.
    metadata:
        Family-specific structure (see the generator modules).
    """

    def __init__(
        self,
        n_qubits: int,
        edges: Iterable[Tuple[int, int]],
        name: str = "",
        kind: str = "generic",
        metadata: Optional[Dict] = None,
    ) -> None:
        if n_qubits <= 0:
            raise ArchitectureError("architecture needs at least one qubit")
        self.n_qubits = n_qubits
        self.name = name or f"{kind}-{n_qubits}"
        self.kind = kind
        self.metadata: Dict = dict(metadata or {})

        edge_set = set()
        adjacency: List[List[int]] = [[] for _ in range(n_qubits)]
        for u, v in edges:
            if u == v:
                raise ArchitectureError(f"self-coupling on qubit {u}")
            if not (0 <= u < n_qubits and 0 <= v < n_qubits):
                raise ArchitectureError(f"edge ({u}, {v}) out of range")
            pair = canonical_edge(u, v)
            if pair in edge_set:
                continue
            edge_set.add(pair)
            adjacency[u].append(v)
            adjacency[v].append(u)
        self._edges: FrozenSet[Tuple[int, int]] = frozenset(edge_set)
        self._adjacency = [tuple(sorted(nbrs)) for nbrs in adjacency]
        self._distances: Optional[np.ndarray] = None
        self._distance_rows: Optional[List[memoryview]] = None

    # -- topology -----------------------------------------------------------------

    @property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """Canonicalised undirected couplings."""
        return self._edges

    @property
    def n_edges(self) -> int:
        """Number of couplings."""
        return len(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are directly coupled."""
        return canonical_edge(u, v) in self._edges

    def neighbors(self, q: int) -> Tuple[int, ...]:
        """Sorted physical neighbours of ``q``."""
        return self._adjacency[q]

    def degree(self, q: int) -> int:
        """Number of couplings incident to ``q``."""
        return len(self._adjacency[q])

    def max_degree(self) -> int:
        """Largest qubit degree (3 on heavy-hex, 4 on Sycamore, ...)."""
        return max(self.degree(q) for q in range(self.n_qubits))

    # -- distances ----------------------------------------------------------------

    def _structure_key(self) -> tuple:
        """Hashable identity of the connectivity (what distances depend on)."""
        return (self.kind, self.n_qubits, self._edges)

    @property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path hop counts (int32, computed lazily and
        memoized process-wide by graph structure; the returned array is
        read-only)."""
        if self._distances is None:
            key = self._structure_key()
            cached = _DISTANCE_CACHE.get(key)
            if cached is None:
                _DISTANCE_COUNTER.miss()
                cached = self._bfs_all_pairs()
                cached.setflags(write=False)
                with _DISTANCE_LOCK:
                    if key not in _DISTANCE_CACHE:
                        if len(_DISTANCE_CACHE) >= _DISTANCE_CACHE_CAP:
                            _DISTANCE_CACHE.pop(next(iter(_DISTANCE_CACHE)))
                        _DISTANCE_CACHE[key] = cached
            else:
                _DISTANCE_COUNTER.hit()
            self._distances = cached
        return self._distances

    @property
    def distance_rows(self) -> List[memoryview]:
        """The distance matrix as one memoryview per row (cached).

        No copy is made, and each item reads as a Python int: hot scalar
        loops index ``rows[p][q]`` where a numpy scalar per read would
        cost more than the read.  Not pickled (memoryviews cannot be);
        an unpickled graph rebuilds the rows on first use.
        """
        if self._distance_rows is None:
            self._distance_rows = [memoryview(row)
                                   for row in self.distance_matrix]
        return self._distance_rows

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        state["_distance_rows"] = None
        return state

    def distance(self, u: int, v: int) -> int:
        """Shortest-path hop count; raises if disconnected."""
        d = int(self.distance_matrix[u, v])
        if d == _UNREACHABLE:
            raise ArchitectureError(f"qubits {u} and {v} are disconnected")
        return d

    def is_connected(self) -> bool:
        """Whether every qubit can reach every other."""
        return bool((self.distance_matrix[0] != _UNREACHABLE).all())

    def _bfs_all_pairs(self) -> np.ndarray:
        n = self.n_qubits
        dist = np.full((n, n), _UNREACHABLE, dtype=np.int32)
        for source in range(n):
            row = dist[source]
            row[source] = 0
            frontier = [source]
            depth = 0
            while frontier:
                depth += 1
                next_frontier = []
                for u in frontier:
                    for v in self._adjacency[u]:
                        if row[v] == _UNREACHABLE:
                            row[v] = depth
                            next_frontier.append(v)
                frontier = next_frontier
        return dist

    # -- misc ---------------------------------------------------------------------

    def to_networkx(self):
        """Export as a networkx.Graph (lazy import)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n_qubits))
        graph.add_edges_from(self._edges)
        return graph

    def shortest_path(self, u: int, v: int) -> List[int]:
        """One BFS shortest path from u to v (inclusive)."""
        if u == v:
            return [u]
        parent = {u: None}
        frontier = [u]
        while frontier:
            next_frontier = []
            for a in frontier:
                for b in self._adjacency[a]:
                    if b not in parent:
                        parent[b] = a
                        if b == v:
                            path = [v]
                            while path[-1] != u:
                                path.append(parent[path[-1]])
                            return list(reversed(path))
                        next_frontier.append(b)
            frontier = next_frontier
        raise ArchitectureError(f"qubits {u} and {v} are disconnected")

    def __repr__(self) -> str:
        return (f"CouplingGraph({self.name!r}, n_qubits={self.n_qubits}, "
                f"edges={self.n_edges})")
