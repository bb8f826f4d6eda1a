"""The single method registry: paper methods + baselines, one lookup."""

import pytest

from repro.arch import grid, line
from repro.pipeline.registry import (MethodSpec, _REGISTRY,
                                     available_methods, get_method,
                                     method_table, register_method)
from repro.problems import random_problem_graph

PAPER = ("hybrid", "greedy", "ata")
BASELINES = ("sabre", "qaim", "2qan", "paulihedral", "olsq", "satmap")


class TestLookup:
    def test_all_nine_methods_registered(self):
        methods = available_methods()
        for name in PAPER + BASELINES:
            assert name in methods

    def test_paper_methods_listed_first(self):
        assert available_methods()[:3] == PAPER

    def test_kinds(self):
        for name in PAPER:
            assert get_method(name).kind == "paper"
        for name in BASELINES:
            assert get_method(name).kind == "baseline"

    def test_twoqan_alias_resolves_to_2qan(self):
        assert get_method("twoqan") is get_method("2qan")
        assert "twoqan" not in available_methods()

    def test_unknown_method_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_method("magic")
        message = str(excinfo.value)
        assert "magic" in message
        for name in PAPER + BASELINES:
            assert name in message

    def test_method_table_has_descriptions(self):
        table = method_table()
        assert set(table) == set(available_methods())
        assert all(table.values())


class TestCompileThroughRegistry:
    @pytest.mark.parametrize("method", PAPER + BASELINES)
    def test_every_method_compiles_and_validates(self, method):
        coupling = grid(3, 3)
        problem = random_problem_graph(8, 0.35, seed=4)
        result = get_method(method).compile(coupling, problem)
        result.validate(coupling, problem)
        assert [r["name"] for r in result.extra["passes"]]

    def test_baseline_result_keeps_its_method_label(self):
        coupling = grid(3, 3)
        problem = random_problem_graph(8, 0.35, seed=4)
        result = get_method("sabre").compile(coupling, problem)
        assert result.method == "sabre"
        assert [r["name"] for r in result.extra["passes"]] == \
            ["sabre", "assembly"]

    def test_baseline_receives_gamma(self):
        from repro.ir.gates import CPHASE

        coupling = line(4)
        problem = random_problem_graph(4, 0.8, seed=0)
        result = get_method("sabre").compile(coupling, problem, gamma=0.7)
        gates = [op for op in result.circuit if op.kind == CPHASE]
        assert gates and all(op.param == 0.7 for op in gates)

    def test_oversized_problem_rejected_for_any_method(self):
        from repro.problems import clique

        for method in ("hybrid", "sabre"):
            with pytest.raises(ValueError, match="has only"):
                get_method(method).compile(line(3), clique(5))

    def test_unknown_paper_knob_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            get_method("greedy").compile(grid(3, 3),
                                         random_problem_graph(8, 0.3,
                                                              seed=1),
                                         bogus=1)

    def test_optimal_method_carries_solver_telemetry(self):
        from repro.problems import clique

        coupling = line(4)
        problem = clique(4)
        result = get_method("optimal").compile(coupling, problem)
        result.validate(coupling, problem)
        assert result.method == "optimal"
        solver = result.extra["solver"]
        assert solver["depth"] == 6  # clique-4 on a line, provably minimal
        assert solver["nodes_expanded"] > 0
        assert solver["strategy"] == "astar"
        assert result.extra["passes"][0]["name"] == "solve"

    def test_optimal_method_forwards_knobs(self):
        from repro.exceptions import SolverError
        from repro.problems import clique

        result = get_method("optimal").compile(
            line(4), clique(4), strategy="idastar", minimize_swaps=True)
        assert result.extra["solver"]["strategy"] == "idastar"
        # fallback=None disables the graceful greedy degradation, so the
        # budget blowup surfaces as the historic hard SolverError.
        with pytest.raises(SolverError, match="node budget"):
            get_method("optimal").compile(line(5), clique(5), max_nodes=3,
                                          fallback=None)

    def test_optimal_method_degrades_by_default(self):
        from repro.problems import clique

        result = get_method("optimal").compile(line(5), clique(5),
                                               max_nodes=3)
        assert result.extra["degraded"]["fallback"] == "greedy"
        assert result.method == "optimal"


class TestCustomRegistration:
    def test_one_registration_reaches_facade_and_batch(self):
        """Adding a method is ONE register_method call, not five edits."""
        from repro.batch import BatchJob
        from repro.compiler import compile_qaoa

        def runner(coupling, problem, noise, gamma, on_pass_end, options):
            return get_method("greedy").runner(coupling, problem, noise,
                                               gamma, on_pass_end, options)

        register_method(MethodSpec("custom-test", "paper", runner,
                                   "test-only clone of greedy"))
        try:
            coupling = grid(3, 3)
            problem = random_problem_graph(8, 0.35, seed=4)
            # facade
            result = compile_qaoa(coupling, problem, method="custom-test")
            result.validate(coupling, problem)
            # batch spec validation resolves through the same registry
            BatchJob(arch="grid", n_qubits=8, method="custom-test")
        finally:
            del _REGISTRY["custom-test"]
