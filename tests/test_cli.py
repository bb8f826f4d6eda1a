"""CLI tests (direct main() invocation with captured stdout)."""

import pytest

from repro.cli import main


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
        # QASM carries no initial mapping, so the linter assumes the
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

    def test_batch_lint_flag_aggregates(self, capsys):
        code, out = run_cli(capsys, ["batch", "--arch", "line",
                                     "--qubits", "6", "--count", "2",
                                     "--serial", "--lint"])
        assert code == 0
        assert "lint: 0 error(s)" in out


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
