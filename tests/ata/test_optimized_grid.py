"""Tests for the Appendix-A merged grid schedule (~1.5n cycles)."""

import pytest

from repro.arch import grid
from repro.ata import ata_suffix, execute_pattern, snake_pattern
from repro.ata.grid_pattern import GridCliquePattern, OptimizedGridPattern
from repro.ir.mapping import Mapping
from repro.ir.validate import validate_compiled
from repro.problems import clique, random_problem_graph


def compile_clique(coupling, pattern):
    n = coupling.n_qubits
    mapping = Mapping.trivial(n)
    circuit, _ = ata_suffix(coupling, pattern, mapping, clique(n).edges,
                            use_range_detection=False)
    validate_compiled(circuit, coupling.edges, mapping, clique(n).edges)
    return circuit


class TestCoverage:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (3, 4),
                                       (4, 4), (4, 5), (5, 5), (5, 6),
                                       (6, 6)])
    def test_clique_coverage(self, shape):
        coupling = grid(*shape)
        compile_clique(coupling,
                       OptimizedGridPattern(coupling.metadata["units"]))

    def test_single_row(self):
        coupling = grid(1, 6)
        compile_clique(coupling,
                       OptimizedGridPattern(coupling.metadata["units"]))

    def test_single_column(self):
        coupling = grid(6, 1)
        compile_clique(coupling,
                       OptimizedGridPattern(coupling.metadata["units"]))

    def test_arbitrary_initial_mapping(self):
        coupling = grid(3, 4)
        n = coupling.n_qubits
        import random
        perm = list(range(n))
        random.Random(3).shuffle(perm)
        mapping = Mapping(perm, n)
        pattern = OptimizedGridPattern(coupling.metadata["units"])
        circuit, _ = ata_suffix(coupling, pattern, mapping, clique(n).edges,
                                use_range_detection=False)
        validate_compiled(circuit, coupling.edges, mapping, clique(n).edges)


class TestDepthClaims:
    @pytest.mark.parametrize("shape", [(4, 4), (5, 5), (6, 6)])
    def test_beats_snake_on_depth(self, shape):
        """The Appendix-A claim: the merged schedule beats the 2n snake."""
        coupling = grid(*shape)
        optimized = compile_clique(
            coupling, OptimizedGridPattern(coupling.metadata["units"]))
        snake = compile_clique(coupling, snake_pattern(coupling))
        assert optimized.depth() < snake.depth()

    @pytest.mark.parametrize("shape", [(4, 4), (5, 5), (6, 6)])
    def test_beats_unmerged_composition(self, shape):
        coupling = grid(*shape)
        optimized = compile_clique(
            coupling, OptimizedGridPattern(coupling.metadata["units"]))
        unmerged = compile_clique(
            coupling, GridCliquePattern(coupling.metadata["units"]))
        assert optimized.depth() < unmerged.depth()

    def test_close_to_theoretical_bound(self):
        # ceil(R/2) * (3C + 2) - 2 cycles for R x C.
        coupling = grid(6, 6)
        circuit = compile_clique(
            coupling, OptimizedGridPattern(coupling.metadata["units"]))
        assert circuit.depth() <= 3 * (3 * 6 + 2)


class TestSparseExecution:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_validate(self, seed):
        coupling = grid(4, 4)
        problem = random_problem_graph(16, 0.35, seed=seed)
        mapping = Mapping.trivial(16)
        pattern = OptimizedGridPattern(coupling.metadata["units"])
        circuit, _ = ata_suffix(coupling, pattern, mapping, problem.edges,
                                use_range_detection=False)
        validate_compiled(circuit, coupling.edges, mapping, problem.edges)

    def test_restrict_to_subrectangle(self):
        coupling = grid(5, 5)
        pattern = OptimizedGridPattern(coupling.metadata["units"])
        sub = pattern.restrict([6, 7, 11, 12])
        assert len(sub.region) == 4
        mapping = Mapping([6, 7, 11, 12], 25)
        circuit, _, residual = execute_pattern(sub, mapping,
                                               clique(4).edges,
                                               n_physical=25)
        assert not residual
        validate_compiled(circuit, coupling.edges, mapping, clique(4).edges)
        touched = {q for op in circuit for q in op.qubits}
        assert touched <= sub.region


class TestStructure:
    def test_cycles_are_conflict_free(self):
        coupling = grid(4, 5)
        pattern = OptimizedGridPattern(coupling.metadata["units"])
        for cycle in pattern.cycles():
            qubits = [q for _, u, v in cycle for q in (u, v)]
            assert len(qubits) == len(set(qubits))

    def test_all_actions_on_couplings(self):
        coupling = grid(4, 5)
        pattern = OptimizedGridPattern(coupling.metadata["units"])
        for cycle in pattern.cycles():
            for _, u, v in cycle:
                assert coupling.has_edge(u, v)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OptimizedGridPattern([[0, 1], [2]])
