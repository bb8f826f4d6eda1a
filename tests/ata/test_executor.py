"""Tests for the pattern executor (sparse skipping, early stop, residuals)."""

import random

import pytest

from repro.arch import architecture_for, grid, heavyhex, line
from repro.ata import (GridCliquePattern, OptimizedGridPattern,
                       ata_suffix, execute_pattern, get_pattern,
                       greedy_completion)
from repro.ir.circuit import Circuit
from repro.ir.gates import CPHASE, SWAP
from repro.ir.mapping import Mapping
from repro.ir.program import layer_permutation
from repro.ir.validate import validate_compiled
from repro.problems import clique, random_problem_graph


class TestSparseSkipping:
    def test_only_needed_gates_emitted(self):
        coupling = line(6)
        edges = [(0, 1), (3, 5)]
        circuit, _, residual = execute_pattern(
            get_pattern(coupling), Mapping.trivial(6), edges)
        assert not residual
        assert circuit.cphase_count == 2
        validate_compiled(circuit, coupling.edges, Mapping.trivial(6), edges)

    def test_early_stop_trims_depth(self):
        coupling = line(10)
        sparse, _, _ = execute_pattern(
            get_pattern(coupling), Mapping.trivial(10), [(0, 1)])
        dense, _, _ = execute_pattern(
            get_pattern(coupling), Mapping.trivial(10), clique(10).edges)
        assert sparse.depth() == 1
        assert sparse.depth() < dense.depth()

    def test_empty_edge_set(self):
        circuit, mapping, residual = execute_pattern(
            get_pattern(line(4)), Mapping.trivial(4), [])
        assert len(circuit) == 0
        assert not residual
        assert mapping == Mapping.trivial(4)

    def test_gamma_propagates(self):
        circuit, _, _ = execute_pattern(
            get_pattern(line(3)), Mapping.trivial(3), [(0, 2)], gamma=0.7)
        gates = [op for op in circuit if op.kind == CPHASE]
        assert all(op.param == 0.7 for op in gates)

    def test_appends_to_existing_circuit(self):
        prefix = Circuit(4)
        prefix.append_count = len(prefix)
        circuit, _, _ = execute_pattern(
            get_pattern(line(4)), Mapping.trivial(4), [(0, 1)],
            circuit=prefix)
        assert circuit is prefix


class TestArbitraryInitialMapping:
    @pytest.mark.parametrize("perm", [[2, 0, 3, 1], [3, 2, 1, 0]])
    def test_any_placement_works(self, perm):
        coupling = line(4)
        mapping = Mapping(perm, 4)
        problem = clique(4)
        circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                                problem.edges, use_range_detection=False)
        validate_compiled(circuit, coupling.edges, mapping, problem.edges)

    def test_spare_physical_qubits(self):
        coupling = grid(3, 3)
        mapping = Mapping([0, 1, 2, 3, 4], 9)  # 5 logical on 9 physical
        problem = random_problem_graph(5, 0.6, seed=2)
        circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                                problem.edges, use_range_detection=False)
        validate_compiled(circuit, coupling.edges, mapping, problem.edges)


class TestGreedyCompletion:
    def test_completes_residual_pairs(self):
        coupling = line(5)
        circuit = Circuit(5)
        mapping = Mapping.trivial(5)
        residual = {(0, 4), (1, 3)}
        greedy_completion(coupling, circuit, mapping, residual)
        assert not residual
        validate_compiled(circuit, coupling.edges, Mapping.trivial(5),
                          [(0, 4), (1, 3)])

    def test_adjacent_pair_costs_no_swaps(self):
        coupling = line(3)
        circuit = Circuit(3)
        mapping = Mapping.trivial(3)
        greedy_completion(coupling, circuit, mapping, {(0, 1)})
        assert circuit.swap_count == 0
        assert circuit.cphase_count == 1

    def test_residual_pairs_sharing_a_qubit(self):
        # Routing (0, 2) moves qubit 2's occupant; (2, 4) must then be
        # routed from the *mutated* mapping, not the initial one.
        coupling = line(5)
        circuit = Circuit(5)
        mapping = Mapping.trivial(5)
        residual = {(0, 2), (2, 4)}
        greedy_completion(coupling, circuit, mapping, residual)
        assert not residual
        assert circuit.cphase_count == 2
        validate_compiled(circuit, coupling.edges, Mapping.trivial(5),
                          [(0, 2), (2, 4)])

    def test_mixed_adjacent_and_distant_pairs(self):
        coupling = line(5)
        circuit = Circuit(5)
        mapping = Mapping.trivial(5)
        residual = {(0, 1), (1, 4)}
        greedy_completion(coupling, circuit, mapping, residual)
        assert not residual
        validate_compiled(circuit, coupling.edges, Mapping.trivial(5),
                          [(0, 1), (1, 4)])

    def test_residual_set_is_cleared(self):
        coupling = grid(3, 3)
        residual = {(0, 8), (2, 6)}
        greedy_completion(coupling, Circuit(9), Mapping.trivial(9), residual)
        assert residual == set()

    def test_mapping_mutated_consistently_with_emitted_swaps(self):
        # The in-place mapping must equal the initial mapping pushed
        # through every SWAP the completion emitted.
        coupling = grid(3, 3)
        circuit = Circuit(9)
        mapping = Mapping.trivial(9)
        greedy_completion(coupling, circuit, mapping, {(0, 8), (1, 5)})
        replayed = Mapping.trivial(9)
        for op in circuit:
            if op.kind == SWAP:
                replayed.swap_physical(*op.qubits)
        assert replayed == mapping


class TestSparseRandomGraphs:
    @pytest.mark.parametrize("kind_factory", [
        lambda: line(16), lambda: grid(4, 4), lambda: heavyhex(2, 6)])
    def test_random_sparse_validates(self, kind_factory):
        coupling = kind_factory()
        n_logical = min(coupling.n_qubits, 14)
        problem = random_problem_graph(n_logical, 0.3, seed=5)
        mapping = Mapping.trivial(n_logical, coupling.n_qubits)
        circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                                problem.edges, use_range_detection=False)
        validate_compiled(circuit, coupling.edges, mapping, problem.edges)


#: Every architecture ``get_pattern`` has a structured schedule for.
PATTERN_ARCHS = ["line", "grid", "sycamore", "hexagon", "heavyhex", "cube"]


def _walk_case(kind, shape):
    """A 16-qubit-class device with three spare physical qubits.

    ``random`` is a random graph on a shuffled placement; ``cliques``
    is two 4-cliques at the two ends of a trivial placement, which range
    detection can give separate regions.
    """
    coupling = architecture_for(kind, 16)
    n_logical = coupling.n_qubits - 3
    if shape == "random":
        physical = list(range(coupling.n_qubits))
        random.Random(7).shuffle(physical)
        mapping = Mapping(physical[:n_logical], coupling.n_qubits)
        edges = random_problem_graph(n_logical, 0.3, seed=11).edges
    else:
        mapping = Mapping.trivial(n_logical, coupling.n_qubits)
        edges = [(base + a, base + b) for base in (0, n_logical - 4)
                 for a in range(4) for b in range(a + 1, 4)]
    return coupling, mapping, edges


class TestWalkState:
    """The placement and residual a walk returns agree with the ops it
    emitted."""

    @pytest.mark.parametrize("kind", PATTERN_ARCHS)
    @pytest.mark.parametrize("shape", ["random", "cliques"])
    @pytest.mark.parametrize("use_range_detection", [True, False])
    def test_suffix_mapping_follows_the_emitted_swaps(
            self, kind, shape, use_range_detection):
        coupling, mapping, edges = _walk_case(kind, shape)
        circuit, final = ata_suffix(
            coupling, get_pattern(coupling), mapping, edges,
            use_range_detection=use_range_detection)
        validate_compiled(circuit, coupling.edges, mapping, edges)
        assert final == layer_permutation(circuit, mapping)

    @pytest.mark.parametrize("kind", PATTERN_ARCHS)
    @pytest.mark.parametrize("shape", ["random", "cliques"])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_pattern_residual_is_the_edges_not_emitted(
            self, kind, shape, restricted):
        """A pattern restricted to half the placed qubits leaves every
        pair reaching outside it as residual."""
        coupling, mapping, edges = _walk_case(kind, shape)
        pattern = get_pattern(coupling)
        if restricted:
            pattern = pattern.restrict(
                [mapping.physical(v) for v in range(mapping.n_logical // 2)])
        circuit, final, residual = execute_pattern(pattern, mapping, edges)
        emitted = [op.tag for op in circuit if op.kind == CPHASE]
        assert len(emitted) == len(set(emitted))
        assert residual == set(edges) - set(emitted)
        assert final == layer_permutation(circuit, mapping)


class TestRestriction:
    def test_grid_restrict_covers_subclique(self):
        coupling = grid(5, 5)
        pattern = get_pattern(coupling)
        qubits = [6, 7, 11, 12]  # a 2x2 block
        sub = pattern.restrict(qubits)
        assert sub.region >= set(qubits)
        assert len(sub.region) == 4

    @pytest.mark.parametrize("cls", [OptimizedGridPattern,
                                     GridCliquePattern])
    def test_grid_restrict_is_the_bounding_box(self, cls):
        # Unit qubits 0-4, 10-14, 20-24 and 30-34; draws from 0-59 also
        # hit qubits outside the units, which restrict ignores.
        units = [[10 * r + c for c in range(5)] for r in range(4)]
        pattern = cls(units)
        rng = random.Random(5)
        for _ in range(60):
            qubits = rng.sample(range(60), rng.randint(0, 8))
            cells = [(r, c) for r, unit in enumerate(units)
                     for c, q in enumerate(unit) if q in qubits]
            sub = pattern.restrict(qubits)
            if not cells:
                assert sub is pattern
                continue
            rows, cols = zip(*cells)
            box = {units[r][c] for r in range(min(rows), max(rows) + 1)
                   for c in range(min(cols), max(cols) + 1)}
            assert type(sub) is cls
            assert sub.region == box
            assert sub is pattern.restrict(set(qubits))

    def test_grid_restricted_execution(self):
        coupling = grid(5, 5)
        # Logical qubits placed inside rows 1-2, cols 1-2.
        mapping = Mapping([6, 7, 11, 12], 25)
        problem = clique(4)
        sub = get_pattern(coupling).restrict([6, 7, 11, 12])
        circuit, _, residual = execute_pattern(
            sub, mapping, problem.edges, n_physical=25)
        assert not residual
        validate_compiled(circuit, coupling.edges, mapping, problem.edges)
        # Restricted pattern never touches qubits outside its region.
        touched = {q for op in circuit for q in op.qubits}
        assert touched <= sub.region

    def test_sycamore_restrict_widens_single_row(self):
        from repro.arch import sycamore
        pattern = get_pattern(sycamore(4, 4))
        sub = pattern.restrict([0, 2])  # both on row 0
        assert sub.row_range in [(0, 1)]

    def test_hexagon_restrict_even_rows(self):
        from repro.arch import hexagon
        pattern = get_pattern(hexagon(6, 4))
        sub = pattern.restrict([0, 7])  # col 0 rows 0..1? -> even range
        span = sub.row_range[1] - sub.row_range[0] + 1
        assert span % 2 == 0

    def test_heavyhex_restrict_on_path_only(self):
        coupling = heavyhex(3, 6)
        pattern = get_pattern(coupling)
        path = coupling.metadata["path"]
        sub = pattern.restrict([path[2], path[5]])
        assert len(sub.path) == 4
        assert not sub.off_path

    def test_heavyhex_restrict_with_off_path_keeps_full(self):
        coupling = heavyhex(3, 6)
        pattern = get_pattern(coupling)
        off = next(iter(coupling.metadata["off_path"]))
        sub = pattern.restrict([off, coupling.metadata["path"][0]])
        assert sub.region == pattern.region
