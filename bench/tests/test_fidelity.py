"""Wrapping call sites from outside measures the same program.

For one small instance of each compile workload, the traced compile must
be byte-identical to the untraced one, and each outside ``pipeline.*``
span must agree with the wall time the pipeline itself records for that
pass in ``extra["passes"]``.
"""

import json

import pytest

from bench.layers import COMPILE_SITES, SITES
from bench.trace import Instrumentation, Tracer


def _compile(coupling, problem):
    from repro.compiler import compile_qaoa

    return compile_qaoa(coupling, problem, method="hybrid")


def _instances():
    from repro.arch import architecture_for
    from repro.problems.graphs import (clique, random_problem_graph,
                                       regular_problem_graph)

    return {
        "sparse": (architecture_for("heavyhex", 40),
                   regular_problem_graph(40, 3, seed=3)),
        "dense": (architecture_for("grid", 36),
                  random_problem_graph(36, 0.5, seed=3)),
        "clique": (architecture_for("grid", 25), clique(25)),
    }


def _document(result):
    from repro.ir.serialize import circuit_to_dict

    return json.dumps(circuit_to_dict(result.circuit), sort_keys=True)


@pytest.mark.parametrize("kind", ["sparse", "dense", "clique"])
def test_traced_compile_is_byte_identical(kind):
    coupling, problem = _instances()[kind]
    untraced = _compile(coupling, problem)
    tracer = Tracer()
    with Instrumentation(tracer, SITES):
        traced = _compile(coupling, problem)
    assert _document(traced) == _document(untraced)
    assert traced.extra["selected"] == untraced.extra["selected"]
    assert {span.name for span in tracer.spans} >= {
        "pipeline.placement", "pipeline.candidates", "ata.candidate_metrics",
        "compiler.greedy_compile", "methods.hybrid"}


def test_traced_batch_job_has_the_same_record():
    from repro.batch import engine
    from repro.batch.jobs import BatchJob

    job = BatchJob(arch="grid", n_qubits=16, workload="rand", density=0.4,
                   seed=2, method="hybrid", layers=2, validate=True,
                   lint=True)

    def record(result):
        assert result.ok, result.error
        return {key: result.record[key]
                for key in ("depth", "cx", "swaps", "ops")}

    untraced = engine.execute_job(job)
    with Instrumentation(Tracer(), SITES):
        traced = engine.execute_job(job)
    assert record(traced) == record(untraced)
    assert traced.lint == untraced.lint


def test_worker_entry_point_returns_spans_and_an_unchanged_document():
    from bench.layers import traced_execute_job
    from repro.batch import engine
    from repro.batch.jobs import BatchJob

    job = BatchJob(arch="line", n_qubits=12, seed=1, method="greedy")
    originals = [site.resolve()[2] for site in COMPILE_SITES]
    traced = traced_execute_job(job)
    assert [site.resolve()[2] for site in COMPILE_SITES] == originals
    plain = engine.execute_job(job)
    assert set(traced.to_json()) == set(plain.to_json())
    assert traced.record["depth"] == plain.record["depth"]
    names = {span.name for span in traced.spans}
    assert {"batch.execute_job", "methods.greedy",
            "pipeline.greedy"} <= names


def test_pass_spans_agree_with_the_pipeline_s_own_pass_timings():
    coupling, problem = _instances()["dense"]
    _compile(coupling, problem)  # warm caches
    tracer = Tracer()
    with Instrumentation(tracer, SITES):
        result = _compile(coupling, problem)
    spans = [span for span in tracer.spans
             if span.name.startswith("pipeline.")]
    passes = result.extra["passes"]
    assert [span.name for span in spans] == \
        [f"pipeline.{record['name']}" for record in passes]
    for span, record in zip(spans, passes):
        # Within 10%, plus half a millisecond for passes too short for
        # a relative bound to mean anything.
        assert span.duration == pytest.approx(record["wall_s"], rel=0.10,
                                              abs=5e-4), record["name"]
    assert sum(span.duration for span in spans) == pytest.approx(
        sum(record["wall_s"] for record in passes), rel=0.10)
