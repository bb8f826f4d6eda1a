"""Engine-level tests for the greedy component (Section 6.2)."""

import pytest

from repro.arch import (NoiseModel, architecture_for, grid, heavyhex, line,
                        sycamore, uniform_noise_model)
from repro.compiler import compile_qaoa
from repro.compiler.greedy import Snapshot, greedy_compile, replay_snapshots
from repro.compiler.mapping import quadratic_placement, trivial_placement
from repro.ir.gates import CPHASE, SWAP
from repro.ir.validate import validate_compiled
from repro.problems import ProblemGraph, clique, random_problem_graph


def run(coupling, problem, **kwargs):
    mapping = trivial_placement(coupling, problem)
    trace = greedy_compile(coupling, problem, mapping, **kwargs)
    if not trace.remaining:
        validate_compiled(trace.circuit, coupling.edges, mapping,
                          problem.edges)
    return trace


class TestBasicOperation:
    def test_adjacent_gates_no_swaps(self):
        coupling = line(4)
        problem = ProblemGraph(4, [(0, 1), (2, 3)])
        trace = run(coupling, problem)
        assert trace.circuit.swap_count == 0
        assert trace.cycles == 1

    def test_empty_problem(self):
        trace = run(line(3), ProblemGraph(3, []))
        assert len(trace.circuit) == 0
        assert trace.cycles == 0

    def test_completes_clique(self):
        trace = run(grid(3, 3), clique(9))
        assert not trace.remaining

    def test_final_mapping_consistent_with_swaps(self):
        coupling = line(5)
        problem = random_problem_graph(5, 0.6, seed=3)
        mapping = trivial_placement(coupling, problem)
        trace = greedy_compile(coupling, problem, mapping)
        report = validate_compiled(trace.circuit, coupling.edges, mapping,
                                   problem.edges)
        assert report.final_mapping.log_to_phys == trace.final_mapping.log_to_phys


def replayed(trace, mapping, problem):
    """``(snapshot, mapping, remaining)`` at every logged snapshot."""
    return list(replay_snapshots(trace.circuit, mapping, problem.edges,
                                 trace.snapshots))


class TestSnapshots:
    def test_snapshot_zero_recorded(self):
        trace = run(line(6), random_problem_graph(6, 0.5, seed=1))
        assert trace.snapshots[0] == Snapshot(cycle=0, op_count=0)

    def test_snapshots_track_mapping_changes(self):
        coupling = line(6)
        problem = random_problem_graph(6, 0.5, seed=1)
        trace = run(coupling, problem)
        assert len(trace.snapshots) > 1
        ops = trace.circuit.ops
        for before, after in zip(trace.snapshots, trace.snapshots[1:]):
            assert before.cycle < after.cycle
            assert before.op_count < after.op_count
            # A snapshot is logged right after a cycle's SWAPs.
            assert ops[after.op_count - 1].kind == SWAP

    def test_snapshot_remaining_matches_prefix(self):
        coupling = line(8)
        problem = random_problem_graph(8, 0.4, seed=2)
        mapping = trivial_placement(coupling, problem)
        trace = greedy_compile(coupling, problem, mapping)
        for snapshot, _, remaining in replayed(trace, mapping, problem):
            executed = {op.tag for op in trace.circuit.ops[:snapshot.op_count]
                        if op.kind == CPHASE}
            assert executed.isdisjoint(remaining)
            assert len(executed) + len(remaining) == problem.n_edges

    @pytest.mark.parametrize("coupling, problem", [
        (line(10), random_problem_graph(10, 0.5, seed=3)),
        (grid(3, 4), random_problem_graph(12, 0.5, seed=4)),
        (heavyhex(2, 6), random_problem_graph(14, 0.4, seed=5)),
        (sycamore(4, 4), random_problem_graph(16, 0.4, seed=6)),
    ], ids=["line", "grid", "heavyhex", "sycamore"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["plain", "noisy"])
    def test_rebuilt_state_equals_capped_run(self, coupling, problem, noisy):
        """At every snapshot the replayed mapping and remaining edges are
        what the engine holds when capped at that snapshot's cycle."""
        noise = NoiseModel(coupling, seed=2) if noisy else None
        mapping = trivial_placement(coupling, problem)
        trace = greedy_compile(coupling, problem, mapping, noise=noise)
        states = replayed(trace, mapping, problem)
        assert len(states) > 2
        for snapshot, rebuilt, remaining in states:
            capped = greedy_compile(coupling, problem, mapping, noise=noise,
                                    max_cycles=snapshot.cycle)
            assert len(capped.circuit) == snapshot.op_count
            assert rebuilt == capped.final_mapping
            assert remaining == capped.remaining


class TestMaxCycles:
    def test_cap_leaves_remainder(self):
        coupling = line(8)
        problem = clique(8)
        mapping = trivial_placement(coupling, problem)
        trace = greedy_compile(coupling, problem, mapping, max_cycles=2)
        assert trace.remaining
        assert trace.cycles == 2
        # Terminal snapshot present for suffix splicing.
        terminal, rebuilt, remaining = replayed(trace, mapping, problem)[-1]
        assert terminal.op_count == len(trace.circuit)
        assert rebuilt == trace.final_mapping
        assert remaining == trace.remaining

    def test_zero_cap_is_pure_snapshot(self):
        trace = run(line(6), clique(6), max_cycles=0)
        assert len(trace.circuit) == 0
        assert len(trace.remaining) == clique(6).n_edges
        assert trace.snapshots == [Snapshot(0, 0)]

    @pytest.mark.parametrize("cap", range(3, 15))
    def test_capped_run_logs_its_last_point_once(self, cap):
        """A cap that stops the engine right after a SWAP cycle must not
        log that point a second time as the terminal snapshot."""
        from repro.arch import architecture_for
        from repro.compiler import compile_qaoa
        from repro.compiler.mapping import quadratic_placement

        coupling = architecture_for("grid", 36)
        problem = random_problem_graph(36, 0.3, seed=2)
        mapping = quadratic_placement(coupling, problem)
        trace = greedy_compile(coupling, problem, mapping, max_cycles=cap)
        assert trace.remaining
        assert len(set(trace.snapshots)) == len(trace.snapshots)
        assert trace.snapshots[-1] == Snapshot(cap, len(trace.circuit))
        # One score per pool entry: no two hybrid@<cycle> candidates.
        result = compile_qaoa(coupling, problem, method="hybrid",
                              greedy_cycle_cap=cap)
        assert (len(result.extra["scores"])
                == result.extra["candidates"]["count"])


class TestUnification:
    def test_unified_swaps_execute_pending_gate(self):
        coupling = line(6)
        problem = clique(6)
        plain = run(coupling, problem, unify_swaps=False)
        unified = run(coupling, problem, unify_swaps=True)
        assert unified.circuit.cx_count(unify=True) <= \
            plain.circuit.cx_count(unify=True)

    def test_unify_preserves_validity(self):
        coupling = grid(3, 3)
        problem = random_problem_graph(9, 0.5, seed=4)
        run(coupling, problem, unify_swaps=True)


class TestGateSelectionModes:
    def test_greedy_mode_valid(self):
        run(grid(3, 3), random_problem_graph(9, 0.5, seed=5),
            gate_selection="greedy")

    def test_color_mode_with_noise(self):
        coupling = grid(3, 3)
        noise = uniform_noise_model(coupling)
        run(coupling, random_problem_graph(9, 0.5, seed=5), noise=noise)
