"""Tests for per-gate shortest-path routing and the baselines' helpers.

``Walk.complete`` is the one shortest-path router: a one-pair residual
through ``greedy_completion`` is what each baseline fallback pair goes
through, and Paulihedral routes every gate the same way.
"""

import random

import pytest

from repro.arch import grid, line
from repro.ata import greedy_completion
from repro.baselines import compile_paulihedral
from repro.baselines.paulihedral import matching_layers
from repro.compiler.mapping import mapping_cost
from repro.ir.circuit import Circuit
from repro.ir.gates import CPHASE
from repro.ir.mapping import Mapping
from repro.ir.program import layer_permutation
from repro.ir.serialize import circuit_to_dict
from repro.ir.validate import validate_compiled
from repro.problems import ProblemGraph, clique, random_problem_graph

from .reference_routing import reference_completion, reference_paulihedral
from .test_sabre import DIFFERENTIAL_ARCHS


class TestRouteAndExecute:
    """Route one pair to adjacency, then execute its gate."""

    def test_adjacent_pair_direct(self):
        coupling = line(3)
        circuit = Circuit(3)
        mapping = Mapping.trivial(3)
        greedy_completion(coupling, circuit, mapping, {(0, 1)})
        assert circuit.swap_count == 0
        assert circuit.cphase_count == 1

    def test_distant_pair_routes(self):
        coupling = line(5)
        circuit = Circuit(5)
        mapping = Mapping.trivial(5)
        greedy_completion(coupling, circuit, mapping, {(0, 4)})
        assert circuit.swap_count == 3
        validate_compiled(circuit, coupling.edges, Mapping.trivial(5),
                          [(0, 4)])

    def test_gamma_and_tag(self):
        coupling = line(3)
        circuit = Circuit(3)
        mapping = Mapping.trivial(3)
        greedy_completion(coupling, circuit, mapping, {(0, 2)}, gamma=0.3)
        gate = [op for op in circuit if op.kind == CPHASE][0]
        assert gate.param == 0.3
        assert gate.tag == (0, 2)

    def test_sequence_of_routes_stays_consistent(self):
        coupling = grid(3, 3)
        circuit = Circuit(9)
        mapping = Mapping.trivial(9)
        pairs = [(0, 8), (1, 7), (2, 6)]
        for pair in pairs:
            greedy_completion(coupling, circuit, mapping, {pair})
        validate_compiled(circuit, coupling.edges, Mapping.trivial(9),
                          pairs)


class TestMappingCost:
    def test_trivial_line_cost(self):
        coupling = line(4)
        problem = ProblemGraph(4, [(0, 3), (1, 2)])
        cost = mapping_cost(coupling, Mapping.trivial(4), problem)
        assert cost == 3 + 1

    def test_zero_for_empty_problem(self):
        coupling = line(3)
        problem = ProblemGraph(3, [])
        assert mapping_cost(coupling, Mapping.trivial(3), problem) == 0


class TestMatchingLayersExtra:
    def test_clique_layer_count(self):
        # Edge colouring of K_n needs n-1 (even n) or n (odd n) matchings;
        # the greedy layering should stay within 2x of that bound.
        for n in (4, 5, 6, 7):
            layers = matching_layers(clique(n))
            optimal = n - 1 if n % 2 == 0 else n
            assert len(layers) <= 2 * optimal

    def test_empty_problem(self):
        assert matching_layers(ProblemGraph(3, [])) == []

DENSITIES = [0.1, 0.2, 0.3, 0.4, 0.5]
SEEDS = (0, 1, 2)


def _spread_mapping(coupling, n, seed):
    """``n`` logical qubits on a shuffled subset of the device."""
    sites = random.Random(seed).sample(range(coupling.n_qubits), n)
    return Mapping(sites, coupling.n_qubits)


class TestMatchesReference:
    """The walk's router emits the frozen per-pair router's circuit op for
    op, qubit order and tags included, and leaves the same mapping
    (``reference_routing.py`` is the frozen original).  Every case keeps
    three spare physical qubits."""

    @pytest.mark.parametrize("arch", sorted(DIFFERENTIAL_ARCHS))
    @pytest.mark.parametrize("density", DENSITIES)
    def test_paulihedral(self, arch, density):
        coupling = DIFFERENTIAL_ARCHS[arch]()
        n = coupling.n_qubits - 3
        for seed in SEEDS:
            problem = random_problem_graph(n, density, seed=seed)
            for initial in (None, _spread_mapping(coupling, n, seed)):
                result = compile_paulihedral(coupling, problem, gamma=0.7,
                                             initial_mapping=initial)
                circuit, final = reference_paulihedral(
                    coupling, problem, gamma=0.7, initial_mapping=initial)
                assert circuit_to_dict(result.circuit) == circuit_to_dict(
                    circuit)
                assert layer_permutation(
                    result.circuit, result.initial_mapping) == final
                assert result.swap_count > 0

    @pytest.mark.parametrize("arch", sorted(DIFFERENTIAL_ARCHS))
    @pytest.mark.parametrize("density", DENSITIES)
    def test_greedy_completion(self, arch, density):
        """Residual pairs share qubits (every vertex of a random graph at
        these densities has several), and about half arrive in
        non-canonical ``(high, low)`` orientation."""
        coupling = DIFFERENTIAL_ARCHS[arch]()
        n = coupling.n_qubits - 3
        for seed in SEEDS:
            rng = random.Random(seed)
            residual = {(v, u) if rng.random() < 0.5 else (u, v)
                        for u, v in random_problem_graph(
                            n, density, seed=seed).edges}
            assert any(u > v for u, v in residual)
            mapping = _spread_mapping(coupling, n, seed)
            circuit, final = reference_completion(
                coupling, mapping, residual, gamma=0.7)
            ours = Circuit(coupling.n_qubits)
            greedy_completion(coupling, ours, mapping, residual, gamma=0.7)
            assert residual == set()
            assert circuit_to_dict(ours) == circuit_to_dict(circuit)
            assert mapping == final
