"""A batch job that lints and validates scans its circuit once."""

import pytest

import repro.lint.engine as lint_engine
from repro.batch import BatchJob
from repro.batch.engine import execute_job
from repro.compiler.result import CompiledResult
from repro.ir.circuit import Circuit
from repro.ir.gates import Op
from repro.ir.mapping import Mapping


@pytest.fixture
def scans(monkeypatch):
    calls = []
    real = lint_engine.build_context

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(lint_engine, "build_context", counting)
    return calls


def test_lint_and_validate_share_one_scan(scans):
    result = execute_job(BatchJob(arch="line", n_qubits=6, lint=True,
                                  validate=True))
    assert result.ok
    assert result.lint is not None and result.lint["ok"] is True
    assert len(scans) == 1


def test_validate_alone_scans_once(scans):
    result = execute_job(BatchJob(arch="line", n_qubits=6, validate=True))
    assert result.ok and result.lint is None
    assert len(scans) == 1


def test_lint_payload_survives_a_rejection_from_the_same_scan(
        scans, monkeypatch):
    def broken_compiler(coupling, problem, **kwargs):
        u, v = sorted(problem.edges)[0]
        return CompiledResult(
            circuit=Circuit(coupling.n_qubits, [Op.cphase(u, v)]),
            initial_mapping=Mapping.trivial(coupling.n_qubits),
            method="broken")

    import repro.batch.jobs as jobs_module
    monkeypatch.setattr(jobs_module, "resolve_compiler",
                        lambda name: broken_compiler)
    result = execute_job(BatchJob(arch="line", n_qubits=6, density=0.5,
                                  lint=True, validate=True))
    assert not result.ok
    assert result.error_type == "ValidationError"
    assert result.lint is not None and "RL013" in result.lint["by_rule"]
    # The rejection is the report's first blocking diagnostic.
    assert result.error.startswith(
        result.lint["diagnostics"][0]["code"] + " at op#0")
    assert len(scans) == 1
