"""End-to-end clique coverage for every architecture's ATA pattern.

These are the paper's headline structural claims: a clique problem graph
compiles in linear depth on each regular architecture, verified gate by
gate through the semantic validator.
"""

import pytest

from repro.arch import grid, heavyhex, hexagon, line, mumbai, sycamore
from repro.ata import ata_suffix, get_pattern
from repro.ir.mapping import Mapping
from repro.ir.validate import validate_compiled
from repro.problems import clique


def compile_clique(coupling):
    n = coupling.n_qubits
    problem = clique(n)
    mapping = Mapping.trivial(n, coupling.n_qubits)
    pattern = get_pattern(coupling)
    circuit, _ = ata_suffix(coupling, pattern, mapping, problem.edges,
                            use_range_detection=False)
    report = validate_compiled(circuit, coupling.edges, mapping,
                               problem.edges)
    assert report.n_edges == problem.n_edges
    return circuit


class TestLineClique:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_coverage_and_linear_depth(self, n):
        circuit = compile_clique(line(n))
        assert circuit.depth() <= 2 * n + 2


class TestGridClique:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (3, 4),
                                       (4, 4), (4, 5), (5, 5)])
    def test_coverage(self, shape):
        circuit = compile_clique(grid(*shape))
        n = shape[0] * shape[1]
        # Section 3.1 / Appendix A: linear depth; our unmerged composition
        # is ~2n + O(sqrt(n)).
        assert circuit.depth() <= 3 * n + 10

    def test_single_row_grid(self):
        compile_clique(grid(1, 6))

    def test_single_column_grid(self):
        compile_clique(grid(6, 1))


class TestSycamoreClique:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 4), (3, 3), (4, 4),
                                       (4, 5), (5, 5)])
    def test_coverage(self, shape):
        circuit = compile_clique(sycamore(*shape))
        n = shape[0] * shape[1]
        assert circuit.depth() <= 5 * n + 10


class TestHexagonClique:
    @pytest.mark.parametrize("shape", [(2, 2), (4, 3), (4, 4), (6, 4)])
    def test_coverage(self, shape):
        circuit = compile_clique(hexagon(*shape))
        n = shape[0] * shape[1]
        assert circuit.depth() <= 5 * n + 10

    def test_single_column(self):
        compile_clique(hexagon(6, 1))


class TestHeavyHexClique:
    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_coverage(self, rows):
        coupling = heavyhex(rows, 6)
        circuit = compile_clique(coupling)
        # Appendix C: O(n) with a constant for the two passes.
        assert circuit.depth() <= 6 * coupling.n_qubits + 10

    def test_wider_instance(self):
        compile_clique(heavyhex(3, 10))

    def test_mumbai_device(self):
        compile_clique(mumbai())


class TestDepthScalesLinearly:
    """Depth per qubit must stay bounded as instances grow (the paper's
    worst-case linear-depth guarantee)."""

    def test_grid_depth_ratio_stable(self):
        small = compile_clique(grid(3, 3)).depth() / 9
        large = compile_clique(grid(6, 6)).depth() / 36
        assert large <= small * 1.6 + 1

    def test_heavyhex_depth_ratio_stable(self):
        a = heavyhex(2, 6)
        b = heavyhex(4, 10)
        small = compile_clique(a).depth() / a.n_qubits
        large = compile_clique(b).depth() / b.n_qubits
        assert large <= small * 1.6 + 1
