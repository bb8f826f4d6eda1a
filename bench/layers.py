"""The call sites the traced run wraps, and the per-layer metrics.

:data:`SITES` is the one table of layer boundaries.  Each entry names an
import-site binding (``repro.pipeline.prediction.candidate_metrics`` is
the name ``CandidatePass`` actually calls) or a class method, so a
wrapper there sees every call the pipeline makes.  A rename under
``src/`` makes :meth:`~bench.trace.CallSite.resolve` raise, and the
benchmark's tests check every entry, so a stale table fails loudly
instead of recording zeros.

Serve compiles run in pool worker processes.  During the traced run the
pool's submit target is swapped for :func:`traced_execute_job`, which
wraps the compile-side sites inside the worker and ships the spans back
on the result; the parent grafts them under the span that awaited the
worker.

Every per-layer metric is defined on every workload.  Times are self
seconds per round, scaled to nominal machine speed like every timing
the benchmark reports (:mod:`bench.speed`), for the spans that every
workload enters; layers that only some workloads use are reported as
shares of measured time, counts or ratios, which are 0 where the layer
is idle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.batch.jobs import BatchJob, JobResult
from repro.resilience.retry import RetryPolicy

from .trace import CallSite, Instrumentation, Span, Tracer
from .workloads import Methods

#: The pipeline passes, in preset order.
PASSES = ("placement", "pattern", "prediction", "greedy", "candidates",
          "selection", "assembly")

#: The methods the benchmark compiles with (``methods.<name>`` spans).
METHODS = Methods.METHODS

#: Spans every workload enters in every round, reported as self seconds.
TIMED_SPANS = tuple(f"pipeline.{name}" for name in PASSES) + (
    "compiler.quadratic_placement", "compiler.greedy_compile",
    "compiler.score_candidates", "ata.candidate_metrics", "ir.validate",
    "lint.lint_result")


def _count_candidates(tracer: Tracer, args: Tuple[Any, ...],
                      result: Any) -> None:
    tracer.count("pipeline.candidates.count", len(args[1].candidates))


def _count_selection(tracer: Tracer, args: Tuple[Any, ...],
                     result: Any) -> None:
    tracer.count("pipeline.selection.runs")
    if args[1].extras.get("selected") != "greedy":
        tracer.count("pipeline.selection.ata_wins")


def _adopt_worker_spans(tracer: Tracer, args: Tuple[Any, ...],
                        result: Any) -> None:
    if isinstance(result, TracedJobResult):
        tracer.adopt(result.spans, result.counts)


#: Sites of the compile path: wrapped in the benchmark process and, for
#: serve, inside each pool worker.
COMPILE_SITES = (
    CallSite("pipeline.placement", "repro.pipeline.placement",
             "PlacementPass.run"),
    CallSite("pipeline.pattern", "repro.pipeline.placement",
             "PatternPass.run"),
    CallSite("pipeline.prediction", "repro.pipeline.prediction",
             "PredictionPass.run"),
    CallSite("pipeline.greedy", "repro.pipeline.greedy", "GreedyPass.run"),
    CallSite("pipeline.candidates", "repro.pipeline.prediction",
             "CandidatePass.run", after=_count_candidates),
    CallSite("pipeline.selection", "repro.pipeline.selection",
             "SelectionPass.run", after=_count_selection),
    CallSite("pipeline.assembly", "repro.pipeline.assembly",
             "AssemblyPass.run"),
    CallSite("compiler.quadratic_placement", "repro.pipeline.placement",
             "quadratic_placement"),
    CallSite("compiler.greedy_compile", "repro.pipeline.greedy",
             "greedy_compile"),
    CallSite("compiler.score_candidates", "repro.pipeline.selection",
             "score_candidates"),
    CallSite("ata.candidate_metrics", "repro.pipeline.prediction",
             "candidate_metrics"),
    # Only materialised winners call it, so it is counted, not timed: its
    # time stays in the prediction or selection pass that called it.
    CallSite("compiler.ata_suffix", "repro.pipeline.prediction",
             "ata_suffix", count_only=True),
    CallSite("ir.validate", "repro.compiler.result",
             "CompiledResult.validate"),
    CallSite("lint.lint_result", "repro.lint", "lint_result"),
    CallSite("methods", "repro.pipeline.registry", "MethodSpec.compile",
             label=lambda args: f"methods.{args[0].name}"),
    CallSite("batch.execute_job", "repro.batch.engine", "execute_job"),
    CallSite("batch.job_build", "repro.batch.jobs", "BatchJob.build"),
)


@dataclass
class TracedJobResult(JobResult):
    """A :class:`JobResult` carrying the spans its worker recorded.

    ``to_json`` lists the base fields only, so stored and served
    documents are unchanged.
    """

    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)


def traced_execute_job(job: BatchJob, timeout_s: Optional[float] = None,
                       retry: Optional[RetryPolicy] = None
                       ) -> TracedJobResult:
    """Pool-worker entry point of the traced run: the job under a fresh
    tracer, its spans returned with the result."""
    from repro.batch import engine

    tracer = Tracer()
    with Instrumentation(tracer, COMPILE_SITES):
        result = engine.execute_job(job, timeout_s, retry)
    base = {f.name: getattr(result, f.name)
            for f in dataclasses.fields(JobResult)}
    return TracedJobResult(**base, spans=tracer.spans, counts=tracer.counts)


#: Sites of the serve path, wrapped in the benchmark process only.
SERVE_SITES = (
    CallSite("serve.handle", "repro.serve.service", "CompileService.handle"),
    CallSite("serve.protocol.normalize", "repro.serve.service",
             "normalize_request"),
    CallSite("resilience.spec_fingerprint", "repro.serve.service",
             "spec_fingerprint"),
    CallSite("serve.store.get", "repro.serve.store",
             "ResultStore.get_result"),
    CallSite("serve.store.put", "repro.serve.store", "ResultStore.put"),
    CallSite("batch.pool.execute", "repro.serve.service",
             "CompileService._execute", after=_adopt_worker_spans),
    CallSite("batch.pool.route", "repro.batch.pool", "execute_job",
             replacement=traced_execute_job),
)

SITES = COMPILE_SITES + SERVE_SITES

#: Spans the serve workload's client records around its JSON framing.
FRAMING_SPANS = ("serve.framing.decode", "serve.framing.encode")

#: Per-layer metric name -> unit, in report order.
PER_LAYER_METRICS: Dict[str, str] = {
    **{f"{span}.self_s": "s" for span in TIMED_SPANS},
    "ata.candidate_metrics.calls": "count",
    "compiler.ata_suffix.calls": "count",
    "pipeline.candidates.count": "count",
    "pipeline.selection.useful_ratio": "ratio",
    "pipeline.selection.ata_win_frac": "fraction",
    "ata.pattern_cache.hit_ratio": "ratio",
    "arch.distance_cache.hit_ratio": "ratio",
    "arch.distance_cache.misses": "count",
    **{f"methods.{name}.share": "fraction" for name in METHODS},
    "batch.execute_job.share": "fraction",
    "batch.job_build.share": "fraction",
    "batch.pool.wait_share": "fraction",
    "batch.pool.utilization": "fraction",
    "serve.hit.protocol_share": "fraction",
    "serve.hit.fingerprint_share": "fraction",
    "serve.hit.store_get_share": "fraction",
    "serve.hit.framing_share": "fraction",
    "serve.cold.store_put_share": "fraction",
    "serve.store.hit_ratio": "ratio",
    "serve.dedupe_ratio": "ratio",
    "serve.failed": "count",
    "trace.pass_coverage": "fraction",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class TracedPhase:
    """What the traced run measured, beside the spans themselves."""

    rounds: int
    #: Seconds of every timed operation (compile call, job or request).
    op_seconds: List[float]
    #: Summed operation time scaled to nominal speed (:mod:`bench.speed`),
    #: of the traced rounds and of the same rounds run untraced.
    traced_scaled: float
    untraced_scaled: float
    #: Median probe slowdown over the traced rounds.
    slowdown: float
    wall_s: float
    #: ``{cache: {"hits", "misses"}}`` accrued during the traced rounds.
    cache: Mapping[str, Mapping[str, int]]
    #: Serve only: ``(request id, served_from, seconds)`` per request.
    requests: Sequence[Tuple[str, Optional[str], float]] = ()
    failed_requests: int = 0
    #: Pool workers (serve), for utilisation.
    workers: int = 0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(cache: Mapping[str, Mapping[str, int]], name: str) -> float:
    counts = cache.get(name, {})
    hits, misses = counts.get("hits", 0), counts.get("misses", 0)
    return _ratio(hits, hits + misses)


def per_layer_metrics(tracer: Tracer, phase: TracedPhase
                      ) -> Dict[str, float]:
    """Every :data:`PER_LAYER_METRICS` value for one traced phase."""
    own = tracer.self_times()
    self_s: Dict[str, float] = {}
    duration: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span, span_self in zip(tracer.spans, own):
        self_s[span.name] = self_s.get(span.name, 0.0) + span_self
        duration[span.name] = duration.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
    rounds = max(phase.rounds, 1)
    op_total = sum(phase.op_seconds)
    counts = tracer.counts

    out: Dict[str, float] = {}
    for span in TIMED_SPANS:
        out[f"{span}.self_s"] = \
            self_s.get(span, 0.0) / rounds / phase.slowdown
    out["ata.candidate_metrics.calls"] = \
        calls.get("ata.candidate_metrics", 0) / rounds
    out["compiler.ata_suffix.calls"] = \
        counts.get("compiler.ata_suffix.calls", 0) / rounds
    scored = counts.get("pipeline.candidates.count", 0)
    selections = counts.get("pipeline.selection.runs", 0)
    out["pipeline.candidates.count"] = scored / rounds
    out["pipeline.selection.useful_ratio"] = _ratio(selections, scored)
    out["pipeline.selection.ata_win_frac"] = _ratio(
        counts.get("pipeline.selection.ata_wins", 0), selections)
    out["ata.pattern_cache.hit_ratio"] = _hit_ratio(phase.cache, "pattern")
    out["arch.distance_cache.hit_ratio"] = _hit_ratio(phase.cache,
                                                      "distance_matrix")
    out["arch.distance_cache.misses"] = \
        phase.cache.get("distance_matrix", {}).get("misses", 0) / rounds
    for name in METHODS:
        out[f"methods.{name}.share"] = _ratio(
            duration.get(f"methods.{name}", 0.0), op_total)
    out["batch.execute_job.share"] = _ratio(
        self_s.get("batch.execute_job", 0.0), op_total)
    out["batch.job_build.share"] = _ratio(
        self_s.get("batch.job_build", 0.0), op_total)
    out.update(_serve_metrics(tracer, own, phase))
    out["trace.pass_coverage"] = _ratio(
        sum(duration.get(f"pipeline.{name}", 0.0) for name in PASSES),
        op_total)
    out["trace.overhead_ratio"] = _ratio(phase.traced_scaled,
                                         phase.untraced_scaled)
    return out


def _serve_metrics(tracer: Tracer, own: List[float],
                   phase: TracedPhase) -> Dict[str, float]:
    hits: Set[str] = set()
    colds: Set[str] = set()
    hit_seconds = cold_seconds = 0.0
    inflight = 0
    for request, served_from, seconds in phase.requests:
        if served_from == "store":
            hits.add(request)
            hit_seconds += seconds
        elif served_from == "compiled":
            colds.add(request)
            cold_seconds += seconds
        elif served_from == "inflight":
            inflight += 1
    by_request: Dict[Tuple[str, str], float] = {}
    worker_busy = 0.0
    for span, span_self in zip(tracer.spans, own):
        if span.request is not None:
            key = (span.request, span.name)
            by_request[key] = by_request.get(key, 0.0) + span_self
        if span.name == "batch.execute_job" and phase.workers:
            worker_busy += span.duration

    def share(requests: Set[str], names: Sequence[str],
              total: float) -> float:
        return _ratio(sum(by_request.get((request, name), 0.0)
                          for request in requests for name in names),
                      total)

    n_requests = len(phase.requests)
    return {
        "batch.pool.wait_share": share(colds, ("batch.pool.execute",),
                                       cold_seconds),
        "batch.pool.utilization": _ratio(worker_busy,
                                         phase.wall_s * phase.workers),
        "serve.hit.protocol_share": share(
            hits, ("serve.protocol.normalize",), hit_seconds),
        "serve.hit.fingerprint_share": share(
            hits, ("resilience.spec_fingerprint",), hit_seconds),
        "serve.hit.store_get_share": share(hits, ("serve.store.get",),
                                           hit_seconds),
        "serve.hit.framing_share": share(hits, FRAMING_SPANS, hit_seconds),
        "serve.cold.store_put_share": share(colds, ("serve.store.put",),
                                            cold_seconds),
        "serve.store.hit_ratio": _ratio(len(hits), n_requests),
        "serve.dedupe_ratio": _ratio(inflight, n_requests),
        "serve.failed": float(phase.failed_requests),
    }
