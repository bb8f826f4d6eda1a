"""The output checks can fail, and a failure is counted."""

import dataclasses

import pytest

from bench.run import measure_traced, outcome
from bench.workloads import (Dense, Op, Phase, ServeMix, Workload,
                             check_compiled, job_problems)


def _small():
    from repro.arch import architecture_for
    from repro.compiler import compile_qaoa
    from repro.problems.graphs import random_problem_graph

    coupling = architecture_for("grid", 16)
    problem = random_problem_graph(16, 0.5, seed=4)
    return coupling, problem, compile_qaoa(coupling, problem,
                                           method="hybrid")


def _drop_one_problem_edge(result):
    from repro.ir.circuit import Circuit
    from repro.ir.gates import CPHASE

    ops = list(result.circuit.ops)
    first = next(i for i, op in enumerate(ops) if op.kind == CPHASE)
    del ops[first]
    return dataclasses.replace(
        result, circuit=Circuit(result.circuit.n_qubits, ops), program=None)


def test_a_correct_result_passes():
    coupling, problem, result = _small()
    assert check_compiled(result, coupling, problem) == []


def test_a_missing_problem_edge_is_caught_by_validation_and_lint():
    coupling, problem, result = _small()
    problems = check_compiled(_drop_one_problem_edge(result), coupling,
                              problem)
    assert any(p.startswith("invalid:") for p in problems)
    assert any(p.startswith("lint:") for p in problems)


def test_a_broken_compile_is_counted_as_failed(monkeypatch, tmp_path):
    import repro.compiler

    real = repro.compiler.compile_qaoa
    calls = []

    def tampered(coupling, problem, **kwargs):
        result = real(coupling, problem, **kwargs)
        calls.append(problem.name)
        return _drop_one_problem_edge(result) if len(calls) == 2 \
            else result

    workload = Dense(5, tmp_path)
    workload.prepare()
    monkeypatch.setattr(repro.compiler, "compile_qaoa", tampered)
    phase = Phase()
    workload.run_round(0, phase, None)
    assert len(phase.ops) == len(workload.cells(0))
    assert [op.ok for op in phase.ops].count(False) == 1
    assert outcome(phase.ops) == {"attempted": len(phase.ops), "failed": 1}


def _response(spec, served_from, ok=True, lint_errors=0):
    result = {"ok": ok, "record": {"depth": 10, "cx": 20},
              "lint": {"counts": {"error": lint_errors}}}
    return {"ok": ok, "served_from": served_from, "result": result}


@pytest.fixture
def serve(tmp_path):
    workload = ServeMix(3, tmp_path)
    workload.prepare()
    workload._reference = {}
    return workload


def test_serve_check_flags_the_wrong_served_from(serve):
    spec = serve.spec("grid", "hybrid", 123)
    assert serve._check(spec, "compiled",
                        _response(spec, "compiled")) == []
    problems = serve._check(spec, "store", _response(spec, "compiled"))
    assert problems and "planned 'store'" in problems[0]


def test_serve_check_flags_a_differing_result_and_lint_errors(serve):
    spec = serve.spec("grid", "hybrid", 7)
    assert spec["lint"] is False
    serve._check(spec, "compiled", _response(spec, "compiled"))
    changed = _response(spec, "store")
    changed["result"]["record"]["depth"] = 11
    assert serve._check(spec, "store", changed) == [
        "result differs from the first response for this spec"]
    linted = serve.spec("line", "hybrid", 9)
    assert linted["lint"] is True
    assert serve._check(linted, "compiled",
                        _response(linted, "compiled", lint_errors=2)) == [
        "lint: 2 error diagnostic(s)"]


def test_serve_wrong_class_is_counted_as_failed(serve):
    spec = serve.spec("grid", "greedy", 5)
    ops = [Op("grid/greedy", "grid/greedy", f"r0.{slot}", 0.001,
              served_from=served,
              problems=serve._check(spec, expected, _response(spec, served)))
           for slot, (expected, served) in enumerate(
               (("compiled", "compiled"), ("store", "store"),
                ("store", "compiled")))]
    assert outcome(ops) == {"attempted": 3, "failed": 1}


class _TracedDiffers(Workload):
    """Its first traced round returns a different output."""

    name = "differs"

    def run_round(self, index, phase, tracer):
        signature = "b" if tracer is not None and index == 0 else "a"
        phase.ops.append(Op("x", "x", f"r{index}", 0.001, depth=1, cx=1,
                            signature=signature))
        return 0.001


def test_a_traced_output_that_differs_is_counted_as_failed(tmp_path):
    from bench.layers import PER_LAYER_METRICS

    report = measure_traced(_TracedDiffers(1, tmp_path), seconds=0.001,
                            spans_path=None)
    assert (report["attempted"], report["failed"]) == (2, 1)
    assert list(report["metrics"]) == list(PER_LAYER_METRICS)


def test_job_problems():
    from repro.batch import engine
    from repro.batch.jobs import BatchJob, JobResult

    job = BatchJob(arch="grid", n_qubits=9, seed=1, method="greedy",
                   lint=True)
    good = engine.execute_job(job)
    assert job_problems(good) == []
    assert job_problems(JobResult(job=job, ok=False, error="boom",
                                  error_type="ValidationError")) == [
        "ValidationError: boom"]
    linted = dataclasses.replace(good, lint={"counts": {"error": 1}})
    assert job_problems(linted) == ["lint: 1 error diagnostic(s)"]
    assert job_problems(dataclasses.replace(good, lint=None)) == [
        "lint requested but no lint report returned"]
