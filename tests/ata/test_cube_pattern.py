"""Tests for the 3D lattice generalisation (Fig 13)."""

import pytest

from repro.arch import architecture_for, cube
from repro.ata import ata_suffix, get_pattern
from repro.compiler import compile_qaoa
from repro.ir.mapping import Mapping
from repro.ir.validate import validate_compiled
from repro.problems import clique, random_problem_graph


class TestCubeArchitecture:
    def test_edge_count(self):
        g = cube(2, 2, 2)
        assert g.n_qubits == 8
        assert g.n_edges == 12  # cube edges

    def test_interior_degree_six(self):
        g = cube(3, 3, 3)
        center = 13  # (1,1,1)
        assert g.degree(center) == 6

    def test_planes_metadata(self):
        g = cube(2, 3, 4)
        planes = g.metadata["planes"]
        assert len(planes) == 4
        assert all(len(p) == 6 for p in planes)

    def test_architecture_for(self):
        g = architecture_for("cube", 30)
        assert g.kind == "cube"
        assert g.n_qubits >= 30


class TestCubePattern:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (3, 3, 2),
                                      (3, 3, 3)])
    def test_clique_coverage_linear_depth(self, dims):
        coupling = cube(*dims)
        n = coupling.n_qubits
        mapping = Mapping.trivial(n)
        circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                                clique(n).edges, use_range_detection=False)
        validate_compiled(circuit, coupling.edges, mapping, clique(n).edges)
        assert circuit.depth() <= 5 * n + 10

    def test_pair_path_valid_edges(self):
        coupling = cube(3, 3, 3)
        pattern = get_pattern(coupling)
        for z in range(2):
            path = pattern._pair_path(z)
            assert len(path) == 18
            for a, b in zip(path, path[1:]):
                assert coupling.has_edge(a, b), (a, b)

    def test_single_plane_cube(self):
        coupling = cube(3, 3, 1)
        n = coupling.n_qubits
        mapping = Mapping.trivial(n)
        circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                                clique(n).edges, use_range_detection=False)
        validate_compiled(circuit, coupling.edges, mapping, clique(n).edges)

    def test_hybrid_compiler_on_cube(self):
        coupling = cube(3, 3, 3)
        problem = random_problem_graph(20, 0.3, seed=6)
        result = compile_qaoa(coupling, problem, method="hybrid")
        result.validate(coupling, problem)
