"""Tests for the ATA-prediction component (range detection, suffixes)."""

import pytest

from repro.arch import grid, heavyhex, line
from repro.ata import get_pattern
from repro.ata.executor import ata_suffix, detect_ranges
from repro.ir.mapping import Mapping
from repro.ir.validate import validate_compiled
from repro.problems import clique, random_problem_graph


class TestDetectRanges:
    def test_single_component_single_region(self):
        coupling = line(10)
        pattern = get_pattern(coupling)
        mapping = Mapping.trivial(10)
        plan = detect_ranges(pattern, mapping, [(0, 1), (1, 3)])
        assert len(plan) == 1
        region, edges = plan[0]
        assert edges == {(0, 1), (1, 3)}
        assert region.region == frozenset({0, 1, 2, 3})

    def test_disjoint_components_get_disjoint_regions(self):
        coupling = line(12)
        pattern = get_pattern(coupling)
        mapping = Mapping.trivial(12)
        plan = detect_ranges(pattern, mapping, [(0, 2), (8, 11)])
        assert len(plan) == 2
        regions = [p.region for p, _ in plan]
        assert regions[0] & regions[1] == frozenset()

    def test_overlapping_regions_merge(self):
        coupling = line(10)
        pattern = get_pattern(coupling)
        mapping = Mapping.trivial(10)
        # Components {0,5} and {3,8}: segments [0,5] and [3,8] overlap.
        plan = detect_ranges(pattern, mapping, [(0, 5), (3, 8)])
        assert len(plan) == 1
        region, edges = plan[0]
        assert edges == {(0, 5), (3, 8)}
        assert region.region == frozenset(range(9))

    def test_empty_remaining(self):
        coupling = line(4)
        plan = detect_ranges(get_pattern(coupling), Mapping.trivial(4), [])
        assert plan == []

    def test_grid_components_in_separate_corners(self):
        coupling = grid(5, 5)
        pattern = get_pattern(coupling)
        # Logical 0,1 in the top-left corner; 2,3 in the bottom-right.
        mapping = Mapping([0, 1, 23, 24], 25)
        plan = detect_ranges(pattern, mapping, [(0, 1), (2, 3)])
        assert len(plan) == 2

    def test_highest_index_qubit_finishing_first_is_harmless(self):
        """Regression: the component graph is sized by the problem's true
        vertex count, not ``1 + max(pending index)``.

        When the highest-index logical qubits complete their edges first,
        ``remaining`` stops mentioning them; the detector must neither
        shrink the vertex space under them nor route their pairs again.
        """
        coupling = line(10)
        pattern = get_pattern(coupling)
        mapping = Mapping.trivial(10)
        # Qubits 5..9 already finished; their indices exceed every pending
        # endpoint.  Components {0,3} and {2,4} overlap as segments.
        plan = detect_ranges(pattern, mapping, [(0, 3), (2, 4)])
        assert len(plan) == 1
        region, edges = plan[0]
        assert edges == {(0, 3), (2, 4)}
        assert region.region == frozenset(range(5))
        # Same remaining edges under a permuted mapping that parks the
        # finished qubits inside the pending qubits' physical span: the
        # region may cover their positions, but no edge group may ever
        # resurrect a finished pair.
        shuffled = Mapping([0, 2, 4, 6, 8, 1, 3, 5, 7, 9], 10)
        plan = detect_ranges(pattern, shuffled, [(0, 3), (2, 4)])
        grouped = set().union(*(e for _, e in plan))
        assert grouped == {(0, 3), (2, 4)}

    def test_union_find_merge_matches_quadratic_reference(self):
        """The ownership-sweep merge must reach the same fixpoint, in the
        same output order, as the restart-on-every-merge reference."""
        import random

        from repro.problems.graphs import ProblemGraph

        def reference_detect_ranges(pattern, mapping, remaining):
            remaining = list(remaining)
            if not remaining:
                return []
            components = ProblemGraph(
                mapping.n_logical, remaining).connected_components()
            groups = [set(c) for c in components]

            def restrict(group):
                return pattern.restrict(
                    {mapping.physical(v) for v in group})

            regions = [restrict(g) for g in groups]
            changed = True
            while changed:
                changed = False
                for i in range(len(groups)):
                    for j in range(i + 1, len(groups)):
                        if regions[i].region & regions[j].region:
                            groups[i] |= groups.pop(j)
                            regions.pop(j)
                            regions[i] = restrict(groups[i])
                            changed = True
                            break
                    if changed:
                        break
            return [(r, {e for e in remaining if e[0] in g})
                    for r, g in zip(regions, groups)]

        rng = random.Random(17)
        couplings = [line(24), grid(6, 6), heavyhex(2, 6)]
        for coupling in couplings:
            pattern = get_pattern(coupling)
            n = coupling.n_qubits
            positions = list(range(n))
            for trial in range(8):
                rng.shuffle(positions)
                n_logical = n - rng.randrange(0, 4)
                mapping = Mapping(positions[:n_logical], n)
                pairs = {tuple(sorted(rng.sample(range(n_logical), 2)))
                         for _ in range(rng.randrange(1, 12))}
                remaining = sorted(pairs)
                got = detect_ranges(pattern, mapping, remaining)
                want = reference_detect_ranges(pattern, mapping, remaining)
                assert ([(r.region, e) for r, e in got]
                        == [(r.region, e) for r, e in want]), (
                    coupling.name, trial, remaining)


class TestAtaSuffix:
    def test_suffix_completes_remaining_edges(self):
        coupling = grid(4, 4)
        problem = random_problem_graph(16, 0.3, seed=8)
        mapping = Mapping.trivial(16)
        circuit, final = ata_suffix(coupling, get_pattern(coupling),
                                    mapping, problem.edges)
        validate_compiled(circuit, coupling.edges, mapping, problem.edges)
        assert final.n_logical == 16

    def test_range_detection_reduces_depth_for_local_components(self):
        coupling = line(20)
        pattern = get_pattern(coupling)
        mapping = Mapping.trivial(20)
        edges = [(0, 1), (1, 2), (17, 19)]
        with_ranges, _ = ata_suffix(coupling, pattern, mapping, edges,
                                    use_range_detection=True)
        without, _ = ata_suffix(coupling, pattern, mapping, edges,
                                use_range_detection=False)
        validate_compiled(with_ranges, coupling.edges, mapping, edges)
        validate_compiled(without, coupling.edges, mapping, edges)
        assert with_ranges.depth() <= without.depth()
        assert len(with_ranges) <= len(without)

    def test_suffix_on_heavyhex_clique(self):
        coupling = heavyhex(2, 6)
        n = coupling.n_qubits
        problem = clique(n)
        mapping = Mapping.trivial(n)
        circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                                problem.edges)
        validate_compiled(circuit, coupling.edges, mapping, problem.edges)

    def test_suffix_appends_to_prefix(self):
        from repro.ir.circuit import Circuit
        from repro.ir.gates import Op
        coupling = line(4)
        prefix = Circuit(4, [Op.cphase(0, 1, tag=(0, 1))])
        mapping = Mapping.trivial(4)
        circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                                [(2, 3)], circuit=prefix)
        assert circuit is prefix
        validate_compiled(circuit, coupling.edges, Mapping.trivial(4),
                          [(0, 1), (2, 3)])


class TestSelector:
    def test_cost_f_alpha_bounds(self):
        from repro.pipeline.selection import cost_f
        with pytest.raises(ValueError):
            cost_f(1, 1, 1, 1, None, alpha=1.5)

    def test_cost_f_depth_only(self):
        from repro.pipeline.selection import cost_f
        assert cost_f(50, 999, 100, 100, None, alpha=1.0) == pytest.approx(0.5)

    def test_cost_f_gate_ratio_without_noise(self):
        from repro.pipeline.selection import cost_f
        f = cost_f(100, 50, 100, 100, None, alpha=0.0)
        assert f == pytest.approx(0.5)

    def test_cost_f_esp_term(self):
        from repro.pipeline.selection import cost_f
        perfect = cost_f(100, 100, 100, 100, esp=1.0, alpha=0.0)
        noisy = cost_f(100, 100, 100, 100, esp=0.5, alpha=0.0)
        assert perfect == pytest.approx(0.0)
        assert noisy > perfect

    def test_score_candidates_picks_min(self):
        from repro.pipeline.context import Candidate
        from repro.pipeline.selection import score_candidates
        a = Candidate("a", None, depth=100, gate_count=100, esp=None)
        b = Candidate("b", None, depth=50, gate_count=50, esp=None)
        best = score_candidates([a, b], greedy_depth=100, greedy_gates=100)
        assert best.label == "b"

    def test_score_candidates_empty_rejected(self):
        from repro.pipeline.selection import score_candidates
        with pytest.raises(ValueError):
            score_candidates([], 1, 1)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), "0.5"])
    def test_selector_errors_are_specification_errors(self, alpha):
        from repro.pipeline.selection import cost_f, score_candidates
        from repro.exceptions import SpecificationError
        with pytest.raises(SpecificationError, match="alpha"):
            cost_f(1, 1, 1, 1, None, alpha=alpha)
        with pytest.raises(SpecificationError):
            score_candidates([], 1, 1)
