"""Tests for problem-graph generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems import (ProblemGraph, clique, random_problem_graph,
                            regular_for_density, regular_problem_graph)
from repro.problems.graphs import edge_components


class TestProblemGraph:
    def test_basic_properties(self):
        g = ProblemGraph(4, [(0, 1), (2, 3), (1, 0)])
        assert g.n_edges == 2
        assert g.density() == pytest.approx(2 / 6)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            ProblemGraph(3, [(0, 3)])
        with pytest.raises(ValueError):
            ProblemGraph(3, [(1, 1)])

    def test_degrees(self):
        g = ProblemGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees() == {0: 3, 1: 1, 2: 1, 3: 1}

    def test_neighbors(self):
        g = ProblemGraph(4, [(0, 1), (0, 2)])
        assert g.neighbors(0) == [1, 2]
        assert g.neighbors(3) == []

    def test_connected_components(self):
        g = ProblemGraph(6, [(0, 1), (1, 2), (4, 5)])
        comps = sorted(g.connected_components(), key=min)
        assert comps == [frozenset({0, 1, 2}), frozenset({4, 5})]

    def test_isolated_vertices_excluded_from_components(self):
        g = ProblemGraph(5, [(0, 1)])
        assert g.connected_components() == [frozenset({0, 1})]

    @pytest.mark.parametrize("seed", range(6))
    def test_components_come_in_first_appearance_order(self, seed):
        """Components are listed, and filled, in the order their
        vertices first appear in the edges, as the dict-based union-find
        range detection used before listed them."""
        edges = random_problem_graph(40, 0.04, seed=seed).edges
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        groups = {}
        for vertex in parent:
            groups.setdefault(find(vertex), set()).add(vertex)
        expected = [frozenset(g) for g in groups.values()]
        assert len(expected) > 1
        got = edge_components(40, edges)
        assert [list(c) for c in got] == [list(c) for c in expected]


class TestClique:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_clique_edge_count(self, n):
        assert clique(n).n_edges == n * (n - 1) // 2

    def test_clique_density_is_one(self):
        assert clique(6).density() == pytest.approx(1.0)


class TestRandomGraphs:
    def test_density_matches_target(self):
        g = random_problem_graph(64, 0.3, seed=1)
        assert g.density() == pytest.approx(0.3, abs=0.01)

    def test_seed_reproducibility(self):
        a = random_problem_graph(30, 0.4, seed=9)
        b = random_problem_graph(30, 0.4, seed=9)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = random_problem_graph(30, 0.4, seed=1)
        b = random_problem_graph(30, 0.4, seed=2)
        assert a.edges != b.edges

    def test_density_bounds_validated(self):
        with pytest.raises(ValueError):
            random_problem_graph(10, 1.5)


class TestRegularGraphs:
    def test_all_degrees_equal(self):
        g = regular_problem_graph(20, 4, seed=3)
        assert set(g.degrees().values()) == {4}

    def test_odd_product_bumped(self):
        # 5 * 15 is odd; generator bumps the degree to keep it feasible.
        g = regular_problem_graph(15, 5, seed=3)
        assert set(g.degrees().values()) == {6}

    def test_regular_for_density(self):
        g = regular_for_density(64, 0.3, seed=0)
        assert g.density() == pytest.approx(0.3, abs=0.02)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 40), st.floats(0.05, 0.9))
def test_random_graph_density_property(n, density):
    g = random_problem_graph(n, density, seed=0)
    max_edges = n * (n - 1) // 2
    assert abs(g.n_edges - density * max_edges) <= 0.5 + 1e-9
