"""64-qubit byte-identity suite (ISSUE 6 acceptance).

Recompiles every pinned ``tests/pipeline/fixtures/golden64.json`` entry —
64-logical-qubit grid and heavy-hex instances across all registered
methods — and asserts the serialised circuit is *byte-identical* to the
fixture (sha256 over the canonical JSON form).  This is the safety net
that lets the numpy hot-path rewrite claim it is a pure restructure.

If a fixture mismatch is intentional (a real behaviour change), rerun
``tests/pipeline/fixtures/generate.py`` and explain the change in the
commit message.
"""

import json
from pathlib import Path

import pytest

from repro.arch import grid
from repro.arch.heavyhex import heavyhex_for
from repro.compiler import compile_qaoa
from repro.problems import random_problem_graph

from repro.ir.serialize import program_to_dict

from .fixtures.generate import (ARCHITECTURES, NOISY_CASES, PROBLEMS,
                                PROGRAM_ARCH, PROGRAM_LAYERS,
                                PROGRAM_METHODS, PROGRAM_PROBLEM,
                                WIDE_ARCHITECTURES, WIDE_METHODS,
                                WIDE_PROBLEMS, circuit_digest,
                                compile_noisy, pin)

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden64.json"
DOCUMENT = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
PROGRAM_FIXTURE_PATH = (Path(__file__).parent / "fixtures"
                        / "golden_program16.json")
PROGRAM_DOCUMENT = json.loads(
    PROGRAM_FIXTURE_PATH.read_text(encoding="utf-8"))
NOISY_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_noisy.json"
NOISY_DOCUMENT = json.loads(NOISY_FIXTURE_PATH.read_text(encoding="utf-8"))

ARCH_FACTORIES = dict(ARCHITECTURES)
PROBLEM_SPECS = {label: (n, density, seed)
                 for label, n, density, seed in PROBLEMS}

assert ARCH_FACTORIES.keys() == {"grid-8x8", "heavyhex-64"}


def _params():
    for index, entry in enumerate(DOCUMENT["entries"]):
        label = f"{entry['arch']}-{entry['problem']}-{entry['method']}"
        yield pytest.param(index, id=label)


class TestGolden64:
    def test_fixtures_are_fresh(self):
        """The fixture file must cover every (arch, problem) pair."""
        seen = {(e["arch"], e["problem"]) for e in DOCUMENT["entries"]}
        assert seen == {(a, p) for a in ARCH_FACTORIES
                        for p in PROBLEM_SPECS}

    @pytest.mark.parametrize("index", _params())
    def test_circuit_byte_identical(self, index):
        entry = DOCUMENT["entries"][index]
        coupling = ARCH_FACTORIES[entry["arch"]]()
        n, density, seed = PROBLEM_SPECS[entry["problem"]]
        problem = random_problem_graph(n, density, seed=seed)
        options = DOCUMENT["method_options"].get(entry["method"], {})
        result = compile_qaoa(coupling, problem, method=entry["method"],
                              gamma=DOCUMENT["gamma"], **options)
        assert result.depth() == entry["depth"]
        assert result.circuit.cx_count(unify=True) == entry["cx"]
        assert result.circuit.swap_count == entry["swaps"]
        assert circuit_digest(result.circuit) == entry["sha256"], (
            f"{entry['method']} on {entry['arch']}/{entry['problem']} no "
            "longer produces a byte-identical circuit; if intentional, "
            "regenerate tests/pipeline/fixtures/golden64.json")


class TestGolden64Wide:
    """Dense problems: tens of pending partners per logical qubit."""

    def test_fixtures_are_fresh(self):
        pinned = [(e["arch"], e["problem"], e["method"])
                  for e in DOCUMENT["wide_entries"]]
        assert pinned == [(arch, problem, method)
                          for arch, _ in WIDE_ARCHITECTURES
                          for problem, _ in WIDE_PROBLEMS
                          for method in WIDE_METHODS]

    @pytest.mark.parametrize(
        "entry", DOCUMENT["wide_entries"],
        ids=[f"{e['arch']}-{e['problem']}-{e['method']}"
             for e in DOCUMENT["wide_entries"]])
    def test_circuit_byte_identical(self, entry):
        coupling = dict(WIDE_ARCHITECTURES)[entry["arch"]]()
        problem = dict(WIDE_PROBLEMS)[entry["problem"]]()
        pinned = {key: entry[key] for key in ("sha256", "depth", "cx",
                                              "swaps")}
        assert pin(coupling, problem, entry["method"]) == pinned, (
            f"{entry['method']} on {entry['arch']}/{entry['problem']} no "
            "longer produces a byte-identical circuit; if intentional, "
            "regenerate tests/pipeline/fixtures/golden64.json")


class TestGoldenProgram16:
    """p=3 grid-16 program pinned gate-for-gate (ISSUE 7 satellite)."""

    def _problem(self):
        _, n, density, seed = PROGRAM_PROBLEM
        return random_problem_graph(n, density, seed=seed)

    @pytest.mark.parametrize(
        "entry", PROGRAM_DOCUMENT["entries"],
        ids=[e["method"] for e in PROGRAM_DOCUMENT["entries"]])
    def test_program_gate_for_gate(self, entry):
        coupling = PROGRAM_ARCH[1]()
        result = compile_qaoa(coupling, self._problem(),
                              method=entry["method"],
                              gamma=PROGRAM_DOCUMENT["gamma"],
                              layers=PROGRAM_DOCUMENT["layers"])
        assert circuit_digest(result.circuit) == entry["cost_sha256"]
        assert program_to_dict(result.program) == entry["program"], (
            f"p={PROGRAM_LAYERS} program for {entry['method']} drifted "
            "from golden_program16.json; if intentional, regenerate it")

    @pytest.mark.parametrize("method", PROGRAM_METHODS)
    def test_cost_layer_invariant_under_layers(self, method):
        """``result.circuit`` is byte-identical for any ``layers``."""
        problem = self._problem()
        base = compile_qaoa(PROGRAM_ARCH[1](), problem, method=method,
                            gamma=PROGRAM_DOCUMENT["gamma"])
        layered = compile_qaoa(PROGRAM_ARCH[1](), problem, method=method,
                               gamma=PROGRAM_DOCUMENT["gamma"],
                               layers=PROGRAM_LAYERS)
        assert circuit_digest(base.circuit) == circuit_digest(layered.circuit)
        assert base.initial_mapping.log_to_phys == \
            layered.initial_mapping.log_to_phys
        # p=1 compiles carry a program too; its cost layer is the
        # compiled circuit *object*, reused verbatim.
        assert base.program is not None and base.program.p == 1
        assert base.program.layers[0].circuit is base.circuit


class TestGoldenNoisy:
    """Noise-aware hybrid compiles: ESP enters every candidate's cost F."""

    def test_fixtures_are_fresh(self):
        pinned = [(e["arch"], e["problem"], e["noise_seed"])
                  for e in NOISY_DOCUMENT["entries"]]
        assert pinned == list(NOISY_CASES)
        # At least one winner splices a greedy prefix onto an ATA suffix.
        assert any(e["selected"].startswith("hybrid@")
                   for e in NOISY_DOCUMENT["entries"])

    @pytest.mark.parametrize(
        "entry", NOISY_DOCUMENT["entries"],
        ids=[f"{e['arch']}-{e['problem']}"
             for e in NOISY_DOCUMENT["entries"]])
    def test_noisy_compile_byte_identical(self, entry):
        result, noise = compile_noisy(entry["arch"], entry["problem"],
                                      entry["noise_seed"])
        assert result.extra["selected"] == entry["selected"]
        assert result.depth() == entry["depth"]
        assert result.circuit.cx_count(unify=True) == entry["cx"]
        assert result.circuit.swap_count == entry["swaps"]
        assert result.esp(noise) == pytest.approx(entry["esp"], rel=1e-12)
        assert circuit_digest(result.circuit) == entry["sha256"], (
            f"noisy hybrid on {entry['arch']}/{entry['problem']} no longer "
            "produces a byte-identical circuit; if intentional, regenerate "
            "tests/pipeline/fixtures/golden_noisy.json")
