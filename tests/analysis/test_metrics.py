"""Tests for analysis metrics and table formatting."""

import random

import pytest

from repro.analysis import (format_table, geometric_mean, normalize,
                            reduction, result_metrics)
from repro.arch import NoiseModel, grid, line
from repro.compiler import compile_qaoa
from repro.compiler.result import CompiledResult
from repro.ir.circuit import Circuit
from repro.ir.gates import OP_KINDS, TWO_QUBIT_KINDS, Op
from repro.ir.mapping import Mapping
from repro.problems import clique


class TestReduction:
    def test_half_reduction(self):
        assert reduction(50, 100) == pytest.approx(0.5)

    def test_no_reduction(self):
        assert reduction(100, 100) == pytest.approx(0.0)

    def test_negative_when_worse(self):
        assert reduction(150, 100) == pytest.approx(-0.5)

    def test_zero_baseline(self):
        assert reduction(10, 0) == 0.0


class TestNormalize:
    def test_normalises_to_reference(self):
        norm = normalize({"greedy": 10.0, "ours": 5.0}, "greedy")
        assert norm == {"greedy": 1.0, "ours": 0.5}

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            normalize({"a": 0.0, "b": 1.0}, "a")


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestResultMetrics:
    def test_contains_core_fields(self):
        coupling = line(5)
        result = compile_qaoa(coupling, clique(5))
        metrics = result_metrics(result)
        assert set(metrics) == {"depth", "cx", "swaps", "time_s"}
        assert metrics["depth"] > 0

    def test_esp_with_noise(self):
        coupling = line(5)
        noise = NoiseModel(coupling)
        result = compile_qaoa(coupling, clique(5), noise=noise)
        metrics = result_metrics(result, noise)
        assert 0 < metrics["esp"] < 1

    @pytest.mark.parametrize("seed", range(40))
    def test_one_scan_equals_the_separate_walks(self, seed):
        """Random circuits of every op kind on coupled pairs, repeated
        pairs included so SWAP/CPHASE fusion occurs: the one-pass row
        equals the four separate walks, ESP bit for bit."""
        rng = random.Random(seed)
        coupling = grid(3, 3)
        edges = sorted(coupling.edges)
        kinds = sorted(OP_KINDS)
        ops = []
        for _ in range(rng.randrange(0, 80)):
            kind = rng.choice(kinds)
            if kind in TWO_QUBIT_KINDS:
                u, v = rng.choice(edges)
                if rng.random() < 0.5:
                    u, v = v, u
                ops.append(Op(kind, (u, v), 0.3))
                if rng.random() < 0.3:
                    ops.append(Op(rng.choice(sorted(TWO_QUBIT_KINDS)),
                                  (v, u), 0.3))
            else:
                ops.append(Op(kind, (rng.randrange(coupling.n_qubits),),
                              0.3))
        result = CompiledResult(Circuit(coupling.n_qubits, ops),
                                Mapping.trivial(coupling.n_qubits),
                                "random", wall_time_s=0.25)
        noise = NoiseModel(coupling, seed=seed)
        expected = {"depth": result.depth(), "cx": result.gate_count,
                    "swaps": result.swap_count, "time_s": 0.25}
        assert result_metrics(result) == expected
        noisy = result_metrics(result, noise)
        assert noisy == dict(expected, esp=result.esp(noise))
        assert noisy["esp"].hex() == result.esp(noise).hex()


class TestFormatTable:
    def test_alignment_and_header(self):
        table = format_table(["name", "value"],
                             [["a", 1.0], ["long-name", 123456.0]],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len({len(line) for line in lines[1:]}) == 1  # aligned

    def test_float_formatting(self):
        table = format_table(["x"], [[0.123456], [12.3], [1234.5]])
        assert "0.123" in table
        assert "12.30" in table
        assert "1234" in table
