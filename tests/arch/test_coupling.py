"""Tests for CouplingGraph basics."""

import pickle

import pytest

from repro.arch.coupling import CouplingGraph
from repro.exceptions import ArchitectureError


@pytest.fixture
def square():
    return CouplingGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], name="sq")


class TestTopology:
    def test_edges_canonicalised(self, square):
        assert (0, 3) in square.edges
        assert square.has_edge(3, 0)
        assert square.n_edges == 4

    def test_duplicate_edges_collapse(self):
        g = CouplingGraph(2, [(0, 1), (1, 0)])
        assert g.n_edges == 1

    def test_neighbors_sorted(self, square):
        assert square.neighbors(0) == (1, 3)

    def test_degree(self, square):
        assert square.degree(1) == 2
        assert square.max_degree() == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ArchitectureError):
            CouplingGraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ArchitectureError):
            CouplingGraph(2, [(0, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ArchitectureError):
            CouplingGraph(0, [])


class TestDistances:
    def test_distance_on_cycle(self, square):
        assert square.distance(0, 2) == 2
        assert square.distance(0, 3) == 1
        assert square.distance(1, 1) == 0

    def test_disconnected_distance_raises(self):
        g = CouplingGraph(3, [(0, 1)])
        with pytest.raises(ArchitectureError):
            g.distance(0, 2)

    def test_is_connected(self, square):
        assert square.is_connected()
        assert not CouplingGraph(3, [(0, 1)]).is_connected()

    def test_shortest_path_endpoints(self, square):
        path = square.shortest_path(0, 2)
        assert path[0] == 0 and path[-1] == 2
        assert len(path) == 3
        for a, b in zip(path, path[1:]):
            assert square.has_edge(a, b)

    def test_shortest_path_trivial(self, square):
        assert square.shortest_path(1, 1) == [1]

    def test_distance_matrix_symmetry(self, square):
        m = square.distance_matrix
        assert (m == m.T).all()

    def test_distance_rows_read_python_ints(self, square):
        rows = square.distance_rows
        assert rows is square.distance_rows
        assert [list(row) for row in rows] == square.distance_matrix.tolist()
        assert type(rows[0][2]) is int

    def test_pickles_after_distance_rows(self, square):
        square.distance_rows
        clone = pickle.loads(pickle.dumps(square))
        assert clone.edges == square.edges
        assert [list(row) for row in clone.distance_rows] == [
            list(row) for row in square.distance_rows]


def test_to_networkx_roundtrip(square):
    g = square.to_networkx()
    assert g.number_of_nodes() == 4
    assert g.number_of_edges() == 4


class TestDistanceMatrixCache:
    def test_identical_graphs_share_one_matrix(self):
        from repro.arch import grid
        from repro.arch.coupling import (clear_distance_cache,
                                         distance_cache_info)
        clear_distance_cache()
        first = grid(3, 3).distance_matrix
        second = grid(3, 3).distance_matrix
        assert second is first  # memoized process-wide, not recomputed
        info = distance_cache_info()
        assert info == {"hits": 1, "misses": 1, "size": 1}

    def test_different_structures_get_distinct_entries(self):
        from repro.arch import grid, line
        from repro.arch.coupling import (clear_distance_cache,
                                         distance_cache_info)
        clear_distance_cache()
        grid(3, 3).distance_matrix
        line(9).distance_matrix
        assert distance_cache_info()["misses"] == 2

    def test_cached_matrix_is_read_only(self):
        from repro.arch import grid
        import pytest
        matrix = grid(3, 3).distance_matrix
        with pytest.raises(ValueError):
            matrix[0, 1] = 99

    def test_instance_caches_after_first_lookup(self):
        from repro.arch import grid
        from repro.arch.coupling import (clear_distance_cache,
                                         distance_cache_info)
        clear_distance_cache()
        coupling = grid(3, 3)
        coupling.distance_matrix
        coupling.distance_matrix  # second access stays instance-local
        assert distance_cache_info() == {"hits": 0, "misses": 1, "size": 1}
