"""CLI tests (direct main() invocation with captured stdout)."""

import json

import pytest

from repro.cli import _ARCH_CHOICES, main
from repro.pipeline.registry import available_methods, get_method


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCompile:
    def test_basic_compile(self, capsys):
        code, out = run_cli(capsys, ["compile", "--arch", "grid",
                                     "--qubits", "9", "--density", "0.4"])
        assert code == 0
        assert "depth" in out
        assert "method:   hybrid" in out

    def test_method_selection(self, capsys):
        code, out = run_cli(capsys, ["compile", "--arch", "line",
                                     "--qubits", "6", "--method", "ata"])
        assert code == 0
        assert "method:   ata" in out

    def test_baseline_method_resolves_through_registry(self, capsys):
        code, out = run_cli(capsys, ["compile", "--arch", "grid",
                                     "--qubits", "9", "--density", "0.4",
                                     "--method", "sabre"])
        assert code == 0
        assert "method:   sabre" in out
        assert "depth" in out

    def test_unknown_method_exits_2_listing_registry(self, capsys):
        code = main(["compile", "--arch", "grid", "--qubits", "9",
                     "--method", "magic"])
        assert code == 2
        err = capsys.readouterr().err
        assert "magic" in err
        # The message must list every registered method, baselines too.
        for name in ("hybrid", "greedy", "ata", "sabre", "qaim", "2qan",
                     "paulihedral", "olsq", "satmap"):
            assert name in err

    def test_single_qubit_architecture(self, capsys):
        code, out = run_cli(capsys, ["compile", "--arch", "line",
                                     "--qubits", "1"])
        assert code == 0
        assert "depth: 0" in out

    def test_noise_flag_adds_esp(self, capsys):
        code, out = run_cli(capsys, ["compile", "--arch", "grid",
                                     "--qubits", "9", "--noise"])
        assert code == 0
        assert "esp" in out

    def test_qasm_output(self, capsys, tmp_path):
        target = tmp_path / "out.qasm"
        code, out = run_cli(capsys, ["compile", "--arch", "line",
                                     "--qubits", "5", "--qasm", str(target)])
        assert code == 0
        text = target.read_text()
        assert text.splitlines()[0].startswith("//")
        assert "OPENQASM 2.0;" in text


class TestInputValidation:
    @pytest.mark.parametrize("density", ["1.5", "-0.1", "nan"])
    def test_bad_density_rejected_with_message(self, capsys, density):
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", "--density", density])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "density" in err

    def test_zero_qubits_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", "--qubits", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_negative_qubits_rejected(self):
        with pytest.raises(SystemExit):
            main(["batch", "--qubits", "-4"])

    def test_non_numeric_qubits_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["compile", "--qubits", "many"])
        assert "integer" in capsys.readouterr().err

    def test_batch_unknown_arch_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch", "--arch", "grid,torus"])
        assert "torus" in capsys.readouterr().err

    def test_batch_zero_timeout_rejected(self):
        with pytest.raises(SystemExit):
            main(["batch", "--timeout", "0"])


class TestBatch:
    def test_serial_batch_runs(self, capsys):
        code, out = run_cli(capsys, ["batch", "--arch", "grid,line",
                                     "--qubits", "8", "--count", "2",
                                     "--method", "hybrid,greedy",
                                     "--serial"])
        assert code == 0
        assert "8/8 jobs ok" in out
        assert "cache distance_matrix" in out

    def test_batch_json_report(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(capsys, ["batch", "--arch", "grid",
                                     "--qubits", "8", "--count", "2",
                                     "--serial", "--json", str(target)])
        assert code == 0
        import json
        payload = json.loads(target.read_text())
        assert len(payload["jobs"]) == 2
        assert all(job["ok"] for job in payload["jobs"])

    def test_batch_bad_method_exits_2(self, capsys):
        code = main(["batch", "--method", "magic", "--serial"])
        assert code == 2
        err = capsys.readouterr().err
        assert "magic" in err
        assert "sabre" in err  # registry listing, not a local table

    def test_batch_baseline_method_runs(self, capsys):
        code, out = run_cli(capsys, ["batch", "--arch", "line",
                                     "--qubits", "6", "--count", "2",
                                     "--method", "sabre", "--serial"])
        assert code == 0
        assert "2/2 jobs ok" in out

    def test_telemetry_flag_prints_passes_and_caches(self, capsys):
        code, out = run_cli(capsys, ["compile", "--arch", "grid",
                                     "--qubits", "9", "--telemetry"])
        assert code == 0
        passes = [line.split()[1].rstrip(":") for line in out.splitlines()
                  if line.startswith("pass ")]
        assert passes == ["placement", "pattern", "prediction", "greedy",
                          "candidates", "selection", "assembly"]
        assert any(line.startswith("cache ") for line in out.splitlines())
        assert not any(line.startswith("stage ")
                       for line in out.splitlines())


FIXTURES = "tests/lint/fixtures"


class TestLint:
    """``repro lint`` exit codes (0/1/2) and reporter output."""

    def test_clean_file_exits_0(self, capsys):
        code, out = run_cli(capsys, [
            "lint", f"{FIXTURES}/clean.json", "--arch", "line",
            "--problem", f"{FIXTURES}/clean.problem.json"])
        assert code == 0
        assert "clean: no diagnostics" in out

    def test_errors_exit_1_with_code_and_location(self, capsys):
        code, out = run_cli(capsys, [
            "lint", f"{FIXTURES}/rl001.json", "--arch", "line",
            "--problem", f"{FIXTURES}/rl001.problem.json"])
        assert code == 1
        assert "RL001" in out
        assert "op#0" in out
        assert "hint:" in out

    def test_warnings_exit_0_unless_strict(self, capsys):
        argv = ["lint", f"{FIXTURES}/rl020.json", "--arch", "line",
                "--problem", f"{FIXTURES}/rl020.problem.json"]
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert "RL020" in out
        code, _ = run_cli(capsys, argv + ["--strict"])
        assert code == 1

    def test_ignore_drops_the_error(self, capsys):
        code, _ = run_cli(capsys, [
            "lint", f"{FIXTURES}/rl001.json", "--arch", "line",
            "--problem", f"{FIXTURES}/rl001.problem.json",
            "--ignore", "RL001"])
        assert code == 0

    def test_regenerated_problem_from_flags(self, capsys):
        # No --problem: the empty-ops fixture misses every regenerated
        # clique edge, so RL013 errors out.
        code, out = run_cli(capsys, [
            "lint", f"{FIXTURES}/rl013.json", "--arch", "line",
            "--qubits", "6", "--workload", "clique"])
        assert code == 1
        assert "RL013" in out

    def test_missing_problem_and_qubits_exits_2(self, capsys):
        code = main(["lint", f"{FIXTURES}/clean.json", "--arch", "line"])
        assert code == 2
        assert "--problem" in capsys.readouterr().err

    def test_unknown_rule_code_exits_2(self, capsys):
        code = main(["lint", f"{FIXTURES}/clean.json", "--arch", "line",
                     "--qubits", "6", "--select", "RL999"])
        assert code == 2
        assert "RL999" in capsys.readouterr().err

    def test_unreadable_file_exits_2(self, capsys):
        code = main(["lint", "no-such-file.json", "--arch", "line",
                     "--qubits", "6"])
        assert code == 2
        assert "no-such-file.json" in capsys.readouterr().err

    @pytest.fixture
    def grid9_result(self, tmp_path):
        """A grid-9 hybrid result document and its problem file."""
        from repro.arch import architecture_for
        from repro.ir.serialize import compiled_result_to_dict, \
            problem_to_dict
        from repro.problems import random_problem_graph

        coupling = architecture_for("grid", 9)
        problem = random_problem_graph(9, 0.4, seed=0)
        document = compiled_result_to_dict(
            get_method("hybrid").compile(coupling, problem))
        problem_path = tmp_path / "problem.json"
        problem_path.write_text(json.dumps(problem_to_dict(problem)))
        return document, str(problem_path)

    def _lint_document(self, capsys, tmp_path, document, problem_path):
        target = tmp_path / "doc.json"
        target.write_text(json.dumps(document))
        code = main(["lint", str(target), "--arch", "grid",
                     "--problem", problem_path])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("field,value", [
        ("qubits", [1.0, 1]), ("qubits", ["a", 1]), ("tag", [1, 2, 3]),
        ("tag", [1]), ("tag", ["a", 1])])
    def test_malformed_op_field_exits_2(self, capsys, tmp_path,
                                        grid9_result, field, value):
        document, problem_path = grid9_result
        ops = document["circuit"]["ops"]
        index = next(i for i, op in enumerate(ops) if "tag" in op)
        ops[index][field] = value
        code, captured = self._lint_document(capsys, tmp_path, document,
                                             problem_path)
        assert code == 2
        assert "Traceback" not in captured.err
        assert captured.err.startswith(f"error: {tmp_path / 'doc.json'}: "
                                       f"op#{index}: ")
        assert repr(value) in captured.err

    @pytest.mark.parametrize("qubits,code_", [([0, 99], "RL003"),
                                              ([2, 2], "RL002")])
    def test_integer_qubit_faults_stay_diagnostics(
            self, capsys, tmp_path, grid9_result, qubits, code_):
        document, problem_path = grid9_result
        document["circuit"]["ops"][0]["qubits"] = qubits
        code, captured = self._lint_document(capsys, tmp_path, document,
                                             problem_path)
        assert code == 1
        assert code_ in captured.out

    def test_json_reporter_schema(self, capsys):
        import json
        code, out = run_cli(capsys, [
            "lint", f"{FIXTURES}/rl001.json", f"{FIXTURES}/rl012.json",
            "--arch", "line",
            "--problem", f"{FIXTURES}/rl001.problem.json",
            "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["version"] == 1
        assert payload["totals"]["error"] >= 1
        assert len(payload["files"]) == 2
        first = payload["files"][0]
        assert first["source"].endswith("rl001.json")
        assert first["by_rule"] == {"RL001": 1}
        diagnostic = first["diagnostics"][0]
        assert set(diagnostic) == {"code", "severity", "rule", "message",
                                   "op_index", "cycle", "qubits", "logical",
                                   "layer", "hint"}

    def test_qasm_input(self, capsys, tmp_path):
        # Without a recorded initial mapping the linter assumes the
        # trivial one; a hand-laid-out circuit lints clean through it.
        target = tmp_path / "c.qasm"
        target.write_text(
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[6];\n"
            "cu1(0.7) q[0],q[1];\n"
            "cu1(0.7) q[1],q[2];\n")
        code, out = run_cli(capsys, [
            "lint", str(target), "--arch", "line",
            "--problem", f"{FIXTURES}/clean.problem.json"])
        assert code == 0, out
        assert "clean: no diagnostics" in out

    def test_compiled_qasm_lints_clean(self, capsys, tmp_path):
        # compile --qasm records its non-trivial placement in a comment,
        # which lint reads back instead of assuming the trivial mapping.
        target = tmp_path / "o.qasm"
        problem = ["--arch", "grid", "--qubits", "8", "--density", "0.3"]
        code, _ = run_cli(capsys, ["compile", *problem,
                                   "--qasm", str(target)])
        assert code == 0
        # p = 1: one cost layer, no layer boundaries to record.
        assert "// layers: " not in target.read_text()
        code, out = run_cli(capsys, ["lint", str(target), *problem])
        assert code == 0, out
        assert "clean: no diagnostics" in out

    @pytest.mark.parametrize("layers", [2, 3])
    def test_compiled_program_qasm_lints_clean(self, capsys, tmp_path,
                                               layers):
        # A p > 1 program is exported flattened; the layers comment lets
        # lint check each cost layer from its own entry mapping instead
        # of reading the second layer's edges as repeats (RL012).
        target = tmp_path / f"p{layers}.qasm"
        problem = ["--arch", "grid", "--qubits", "8", "--density", "0.3"]
        code, _ = run_cli(capsys, ["compile", *problem, "--layers",
                                   str(layers), "--qasm", str(target)])
        assert code == 0
        assert "// layers: " in target.read_text()
        code, out = run_cli(capsys, ["lint", str(target), *problem])
        assert code == 0, out
        assert "clean: no diagnostics" in out

    def test_repeat_inside_one_layer_still_reported(self, capsys,
                                                    tmp_path):
        target = tmp_path / "p2.qasm"
        problem = ["--arch", "grid", "--qubits", "8", "--density", "0.3"]
        run_cli(capsys, ["compile", *problem, "--layers", "2",
                         "--qasm", str(target)])
        lines = target.read_text().splitlines()
        layers_at = next(i for i, line in enumerate(lines)
                         if line.startswith("// layers: "))
        layers = json.loads(lines[layers_at][len("// layers: "):])
        first_gate = next(i for i, line in enumerate(lines)
                          if line.startswith("cu1("))
        # Repeat the first layer's first gate at the end of that layer.
        lines.insert(first_gate + layers[0][1], lines[first_gate])
        layers[0][1] += 1
        lines[layers_at] = "// layers: " + json.dumps(layers)
        target.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, ["lint", str(target), *problem])
        assert code == 1
        assert "RL012" in out

    @pytest.mark.parametrize("layers", ['{"cost": 9}', '[["cost", -1]]',
                                        '[["cost", 1]]', '[["bogus", 17]]'])
    def test_malformed_layers_comment_exits_2(self, capsys, tmp_path,
                                              layers):
        target = tmp_path / "p2.qasm"
        problem = ["--arch", "grid", "--qubits", "8", "--density", "0.3"]
        run_cli(capsys, ["compile", *problem, "--layers", "2",
                         "--qasm", str(target)])
        text = target.read_text()
        start = text.index("// layers: ")
        end = text.index("\n", start)
        target.write_text(text[:start] + "// layers: " + layers
                          + text[end:])
        code, _ = run_cli(capsys, ["lint", str(target), *problem])
        assert code == 2

    def test_batch_lint_flag_aggregates(self, capsys):
        code, out = run_cli(capsys, ["batch", "--arch", "line",
                                     "--qubits", "6", "--count", "2",
                                     "--serial", "--lint"])
        assert code == 0
        assert "lint: 0 error(s)" in out


class TestWriteThenLint:
    """What ``compile --qasm`` / ``solve --qasm`` write, ``lint`` reads back
    with zero errors: every method, every device, p in {1, 2}.

    Warnings are not asserted: some methods emit SWAPs that cancel
    (RL020), which wastes cycles but is not an incorrect circuit.
    """

    @staticmethod
    def lint_errors(capsys, target, problem):
        code, out = run_cli(capsys, ["lint", str(target), *problem,
                                     "--format", "json"])
        return code, json.loads(out)["totals"]["error"], out

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("arch", _ARCH_CHOICES)
    @pytest.mark.parametrize("method", available_methods())
    def test_compile_qasm_lints_without_errors(self, capsys, tmp_path,
                                               method, arch, layers):
        # The exact search stays in budget only on small instances.
        qubits = "6" if method == "optimal" else "8"
        problem = ["--arch", arch, "--qubits", qubits, "--density", "0.4"]
        target = tmp_path / "out.qasm"
        code, out = run_cli(capsys, ["compile", *problem, "--method", method,
                                     "--layers", str(layers),
                                     "--qasm", str(target)])
        assert code == 0, out
        code, errors, out = self.lint_errors(capsys, target, problem)
        assert (code, errors) == (0, 0), out

    @pytest.mark.parametrize("workload", ["rand", "clique"])
    @pytest.mark.parametrize("arch", ["line", "grid", "sycamore", "cube"])
    def test_solve_qasm_lints_without_errors(self, capsys, tmp_path, arch,
                                             workload):
        problem = ["--arch", arch, "--qubits", "5", "--workload", workload]
        target = tmp_path / "opt.qasm"
        code, out = run_cli(capsys, ["solve", *problem, "--qasm",
                                     str(target)])
        assert code == 0, out
        code, errors, out = self.lint_errors(capsys, target, problem)
        assert (code, errors) == (0, 0), out


class TestSolve:
    def test_line_clique_reports_depth_and_counters(self, capsys):
        code, out = run_cli(capsys, ["solve", "--arch", "line",
                                     "--qubits", "4"])
        assert code == 0
        assert "depth:    6" in out  # clique-4 on a line is depth 6
        assert "expanded" in out
        assert "strategy: astar" in out

    def test_idastar_strategy(self, capsys):
        code, out = run_cli(capsys, ["solve", "--arch", "grid",
                                     "--qubits", "6", "--workload",
                                     "biclique", "--strategy", "idastar"])
        assert code == 0
        assert "depth:    5" in out
        assert "strategy: idastar" in out

    def test_json_report(self, capsys, tmp_path):
        import json

        path = tmp_path / "solve.json"
        code, out = run_cli(capsys, ["solve", "--arch", "line",
                                     "--qubits", "4", "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["depth"] == 6
        assert payload["strategy"] == "astar"
        assert payload["nodes_expanded"] > 0

    def test_qasm_output(self, capsys, tmp_path):
        path = tmp_path / "optimal.qasm"
        code, _ = run_cli(capsys, ["solve", "--arch", "line",
                                   "--qubits", "4", "--qasm", str(path)])
        assert code == 0
        assert "OPENQASM 2.0" in path.read_text()

    def test_exhausted_budget_exits_1(self, capsys):
        code = main(["solve", "--arch", "grid", "--qubits", "8",
                     "--workload", "clique", "--max-nodes", "10"])
        assert code == 1
        assert "node budget" in capsys.readouterr().err


class TestUnwritablePaths:
    """An output file or store directory that cannot be written is a
    usage error: exit 2 with ``error: <path>: ...``, never a traceback."""

    BATCH = ["batch", "--arch", "line", "--qubits", "6", "--count", "2",
             "--method", "greedy", "--serial"]

    @pytest.mark.parametrize("argv,flag", [
        (BATCH, "--json"),
        (BATCH, "--store"),
        (["compile", "--arch", "line", "--qubits", "6"], "--qasm"),
        (["solve", "--arch", "line", "--qubits", "4"], "--json"),
        (["solve", "--arch", "line", "--qubits", "4"], "--qasm"),
        (["check", "src/repro/cli.py"], "--output"),
    ])
    def test_exits_2_naming_the_path(self, capsys, tmp_path, argv, flag):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        # Below a regular file: neither a file nor a directory can be
        # created there.
        target = str(blocker / "out")
        assert main([*argv, flag, target]) == 2
        assert f"error: {target}: " in capsys.readouterr().err

    def test_batch_report_path_is_checked_before_the_sweep(self, capsys,
                                                          tmp_path):
        from repro.serve.store import ResultStore

        store = tmp_path / "store"
        target = str(tmp_path / "missing" / "dir" / "r.json")
        assert main(["batch", "--arch", "line", "--qubits", "6",
                     "--count", "2", "--serial", "--store", str(store),
                     "--json", target]) == 2
        assert f"error: {target}: " in capsys.readouterr().err
        # No job was compiled, so none reached the store.
        assert ResultStore(str(store)).count_entries() == 0


class TestOtherCommands:
    def test_compare(self, capsys):
        code, out = run_cli(capsys, ["compare", "--arch", "grid",
                                     "--qubits", "9"])
        assert code == 0
        for method in ("greedy", "ata", "hybrid"):
            assert method in out

    def test_clique(self, capsys):
        code, out = run_cli(capsys, ["clique", "--arch", "grid",
                                     "--qubits", "9"])
        assert code == 0
        assert "clique-9" in out
        assert "per qubit" in out

    def test_info(self, capsys):
        code, out = run_cli(capsys, ["info", "--arch", "heavyhex",
                                     "--qubits", "30"])
        assert code == 0
        assert "kind:      heavyhex" in out
        assert "couplings:" in out

    def test_unknown_arch_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["info", "--arch", "torus"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
