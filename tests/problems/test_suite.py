"""Tests for the named workload builder and the Table 4 instances."""

import pytest

from repro.exceptions import SpecificationError
from repro.problems import make_workload
from repro.problems.suite import table4_instances


class TestMakeWorkload:
    def test_random(self):
        g = make_workload("rand", 12, 0.3, seed=0)
        assert g.n_vertices == 12

    def test_regular(self):
        g = make_workload("reg", 12, 0.3, seed=0)
        assert len(set(g.degrees().values())) == 1

    def test_clique_ignores_density_and_seed(self):
        g = make_workload("clique", 6, 0.1, seed=3)
        assert g.n_edges == 15

    def test_unknown_kind(self):
        with pytest.raises(SpecificationError, match="tree"):
            make_workload("tree", 12, 0.3, seed=0)


class TestSuites:
    def test_table4_names(self):
        names = [name for name, _ in table4_instances()]
        assert names == ["10-2", "10-3", "10-4", "12-2", "12-3", "12-4",
                         "15-2", "15-4"]

    def test_table4_sizes(self):
        for name, graph in table4_instances():
            n = int(name.split("-")[0])
            assert graph.n_vertices == n
