"""Correctness and behavioural tests for all baseline compilers."""

from unittest import mock

import pytest

import repro.baselines.satmap as satmap_module
from repro.arch import grid, heavyhex, line, sycamore
from repro.baselines import (compile_olsq, compile_paulihedral, compile_qaim,
                             compile_satmap, compile_twoqan,
                             quadratic_initial_mapping)
from repro.baselines.paulihedral import matching_layers
from repro.compiler import compile_qaoa
from repro.compiler.mapping import mapping_cost, trivial_placement
from repro.exceptions import SpecificationError
from repro.problems import (ProblemGraph, clique, random_problem_graph)

BASELINES = {
    "paulihedral": compile_paulihedral,
    "qaim": compile_qaim,
    "2qan": compile_twoqan,
    "satmap": compile_satmap,
}


class TestAllBaselinesValidate:
    @pytest.mark.parametrize("name", BASELINES)
    @pytest.mark.parametrize("factory", [
        lambda: line(10), lambda: grid(4, 4), lambda: sycamore(3, 4),
        lambda: heavyhex(2, 6)])
    def test_random_graph_validates(self, name, factory):
        coupling = factory()
        n = min(coupling.n_qubits, 10)
        problem = random_problem_graph(n, 0.35, seed=4)
        result = BASELINES[name](coupling, problem)
        result.validate(coupling, problem)
        assert result.method == name

    @pytest.mark.parametrize("name", BASELINES)
    def test_clique_validates(self, name):
        coupling = grid(3, 3)
        problem = clique(9)
        result = BASELINES[name](coupling, problem)
        result.validate(coupling, problem)

    @pytest.mark.parametrize("name", BASELINES)
    def test_empty_problem(self, name):
        coupling = line(4)
        problem = ProblemGraph(3, [])
        result = BASELINES[name](coupling, problem)
        assert len(result.circuit) == 0


class TestOlsq:
    def test_small_exact_instance(self):
        coupling = grid(2, 2)
        problem = clique(4)
        result = compile_olsq(coupling, problem)
        result.validate(coupling, problem)
        assert result.extra["exact"] is True

    def test_beam_fallback(self):
        coupling = grid(3, 3)
        problem = random_problem_graph(9, 0.4, seed=1)
        result = compile_olsq(coupling, problem, exact_node_budget=50)
        result.validate(coupling, problem)
        assert result.extra["exact"] is False

    def test_exact_matches_solver_depth_on_tiny(self):
        from repro.solver import solve_depth_optimal
        coupling = line(4)
        problem = clique(4)
        result = compile_olsq(coupling, problem)
        optimal = solve_depth_optimal(coupling, sorted(problem.edges))
        assert result.circuit.depth() <= optimal.depth
        assert result.extra["exact"]


class TestTwoQan:
    def test_quadratic_mapping_improves_cost(self):
        coupling = grid(4, 4)
        problem = random_problem_graph(12, 0.3, seed=2)
        from repro.compiler.mapping import degree_placement
        base = mapping_cost(coupling, degree_placement(coupling, problem),
                            problem)
        improved = mapping_cost(
            coupling, quadratic_initial_mapping(coupling, problem), problem)
        assert improved <= base

    def test_unification_lowers_gate_count(self):
        # 2QAN fuses routing SWAPs with pending gates, so on a dense
        # problem it beats the plain greedy router on CX count.
        coupling = grid(3, 3)
        problem = clique(9)
        twoqan = compile_twoqan(coupling, problem)
        plain = compile_qaoa(coupling, problem, method="greedy")
        assert twoqan.gate_count <= plain.gate_count


class TestSatmapRestarts:
    """``restarts`` is the number of placements routed, in a fixed order."""

    COUPLING = grid(4, 4)
    PROBLEM = random_problem_graph(12, 0.3, seed=2)

    @pytest.mark.parametrize("restarts", [1, 2, 3, 5])
    def test_routes_exactly_the_requested_placements(self, restarts):
        with mock.patch.object(satmap_module, "greedy_compile",
                               wraps=satmap_module.greedy_compile) as spy:
            compile_satmap(self.COUPLING, self.PROBLEM, restarts=restarts)
        assert spy.call_count == restarts

    def test_one_restart_is_the_trivial_placement(self):
        result = compile_satmap(self.COUPLING, self.PROBLEM, restarts=1)
        assert result.initial_mapping == trivial_placement(self.COUPLING,
                                                           self.PROBLEM)

    @pytest.mark.parametrize("restarts", [0, -5, True, 2.0, "3"])
    def test_rejects_a_non_positive_count(self, restarts):
        with pytest.raises(SpecificationError, match="restarts"):
            compile_satmap(self.COUPLING, self.PROBLEM, restarts=restarts)

    def test_compile_rejects_a_non_positive_count(self):
        with pytest.raises(SpecificationError, match="restarts"):
            compile_qaoa(self.COUPLING, self.PROBLEM, method="satmap",
                         restarts=0)


class TestBehaviouralOrdering:
    """The relative quality ordering the paper reports must hold."""

    def test_ours_beats_paulihedral_on_dense(self):
        coupling = grid(5, 5)
        problem = random_problem_graph(25, 0.4, seed=3)
        ours = compile_qaoa(coupling, problem, method="hybrid")
        pauli = compile_paulihedral(coupling, problem)
        assert ours.depth() < pauli.depth()
        assert ours.gate_count < pauli.gate_count

    def test_ours_beats_qaim_on_dense(self):
        coupling = grid(5, 5)
        problem = random_problem_graph(25, 0.4, seed=3)
        ours = compile_qaoa(coupling, problem, method="hybrid")
        qaim = compile_qaim(coupling, problem)
        assert ours.depth() <= qaim.depth()

    def test_qaim_beats_paulihedral_depth(self):
        # Commutativity exploitation should pay off on dense graphs.
        coupling = grid(5, 5)
        problem = random_problem_graph(25, 0.5, seed=6)
        qaim = compile_qaim(coupling, problem)
        pauli = compile_paulihedral(coupling, problem)
        assert qaim.depth() < pauli.depth()


class TestMatchingLayers:
    def test_layers_partition_edges(self):
        problem = random_problem_graph(10, 0.4, seed=0)
        layers = matching_layers(problem)
        seen = [e for layer in layers for e in layer]
        assert sorted(seen) == sorted(problem.edges)

    def test_layers_are_matchings(self):
        problem = clique(6)
        for layer in matching_layers(problem):
            qubits = [q for e in layer for q in e]
            assert len(qubits) == len(set(qubits))
