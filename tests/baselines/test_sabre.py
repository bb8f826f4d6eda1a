"""Tests for the SABRE-like fixed-order router."""

import random

import pytest

from repro.arch import cube, grid, heavyhex, hexagon, line, sycamore
from repro.baselines import compile_sabre
from repro.compiler import compile_qaoa
from repro.ir.mapping import Mapping
from repro.ir.serialize import circuit_to_dict
from repro.problems import ProblemGraph, clique, random_problem_graph

from .reference_sabre import reference_sabre


class TestCorrectness:
    @pytest.mark.parametrize("factory", [
        lambda: line(8), lambda: grid(3, 3), lambda: heavyhex(2, 6)])
    def test_random_graph_validates(self, factory):
        coupling = factory()
        n = min(coupling.n_qubits, 8)
        problem = random_problem_graph(n, 0.4, seed=9)
        result = compile_sabre(coupling, problem)
        result.validate(coupling, problem)
        assert result.method == "sabre"

    def test_clique_validates(self, factory=lambda: grid(3, 3)):
        coupling = factory()
        problem = clique(9)
        result = compile_sabre(coupling, problem)
        result.validate(coupling, problem)

    def test_empty_problem(self):
        result = compile_sabre(line(3), ProblemGraph(3, []))
        assert len(result.circuit) == 0

    def test_already_adjacent_gates_need_no_swaps(self):
        coupling = line(4)
        problem = ProblemGraph(4, [(0, 1), (2, 3)])
        from repro.compiler.mapping import trivial_placement
        result = compile_sabre(coupling, problem,
                               initial_mapping=trivial_placement(
                                   coupling, problem))
        assert result.swap_count == 0


class TestCommutativityGap:
    def test_ours_beats_sabre_on_dense_graphs(self):
        """The Section 1 motivation: exploiting permutability wins."""
        coupling = grid(4, 4)
        problem = random_problem_graph(16, 0.5, seed=1)
        ours = compile_qaoa(coupling, problem, method="hybrid")
        sabre = compile_sabre(coupling, problem)
        assert ours.depth() <= sabre.depth()
        assert ours.gate_count <= sabre.gate_count * 1.1


DIFFERENTIAL_ARCHS = {
    "line": lambda: line(24),
    "grid": lambda: grid(5, 5),
    "heavyhex": lambda: heavyhex(3, 6),
    "sycamore": lambda: sycamore(5, 5),
    "hexagon": lambda: hexagon(4, 6),
    "cube": lambda: cube(3, 3, 3),
}


class TestMatchesReference:
    """The distance-change scorer emits the copy-and-resum router's
    circuit op for op, qubit order and tags included
    (``reference_sabre.py`` is the frozen original)."""

    @pytest.mark.parametrize("arch", sorted(DIFFERENTIAL_ARCHS))
    @pytest.mark.parametrize("density", [0.1, 0.2, 0.3, 0.4, 0.5])
    def test_random_graphs_with_spare_qubits(self, arch, density):
        coupling = DIFFERENTIAL_ARCHS[arch]()
        n = coupling.n_qubits - 3
        for seed in (1, 2, 3):
            problem = random_problem_graph(n, density, seed=seed)
            result = compile_sabre(coupling, problem, gamma=0.7)
            expected = reference_sabre(coupling, problem, gamma=0.7)
            assert circuit_to_dict(result.circuit) == circuit_to_dict(
                expected)
            assert result.swap_count > 0

    @pytest.mark.parametrize("arch", sorted(DIFFERENTIAL_ARCHS))
    def test_clique_with_explicit_mapping(self, arch):
        coupling = DIFFERENTIAL_ARCHS[arch]()
        n = min(12, coupling.n_qubits - 2)
        problem = clique(n)
        sites = random.Random(arch).sample(range(coupling.n_qubits), n)
        mapping = Mapping(sites, coupling.n_qubits)
        result = compile_sabre(coupling, problem, gamma=0.7,
                               initial_mapping=mapping)
        expected = reference_sabre(coupling, problem, gamma=0.7,
                                   initial_mapping=mapping)
        assert circuit_to_dict(result.circuit) == circuit_to_dict(expected)
        assert result.initial_mapping == mapping
