"""The batch compilation engine: ``compile_many`` over a worker pool.

Design (ISSUE 1 tentpole, hardened by the ISSUE 5 resilience layer):

* **Fan-out** — jobs are picklable :class:`BatchJob` specs; workers
  rebuild each instance locally, so the process-local distance-matrix and
  pattern caches (see :mod:`repro._telemetry`) warm up once per worker and
  amortize across every job that worker handles.  With the default
  ``fork`` start method the workers additionally inherit any cache
  entries the parent already holds.
* **Per-job timeout** — enforced *inside* the worker with ``SIGALRM``
  (``signal.setitimer``), so an overrunning instance turns into an
  ``ok=False`` record instead of wedging a pool slot or killing the
  batch.  A timeout the alarm cannot enforce (thread workers, a thread
  other than the main one) is refused with ``SpecificationError``
  instead of silently running unbounded.
* **Graceful failure capture** — any exception in a job (bad spec,
  compilation error, validation failure, timeout) becomes a structured
  :class:`JobResult` with the exception type and message; the remaining
  jobs are unaffected.
* **Retry with backoff** — pass ``retry=RetryPolicy(...)`` and each
  job's transient failures (:class:`~repro.exceptions.TransientError`)
  are re-attempted in-worker with exponential backoff + deterministic
  jitter; the per-attempt records surface in ``JobResult.attempts``.
* **Worker-death recovery** — pooled runs go through
  :class:`~repro.batch.pool.PersistentPool`, whose one worker-death
  policy (shared with ``repro serve``) quarantines each broken job on a
  private worker up to ``max_pool_restarts`` times, so one dead worker
  never poisons the rest of the sweep (counted in
  ``BatchReport.pool_restarts``).
* **Resume from the result store** — with ``store=ResultStore(dir)``
  every finished ``ok`` result is durably published
  (:mod:`repro.serve.store`) and every job the store already holds is
  read back instead of recompiled, so a re-run after a crash reproduces
  the uninterrupted report.

``compile_many`` returns a :class:`BatchReport` that preserves job order,
aggregates cache hit/miss counters and per-pass timings, and renders a table
via :func:`repro.analysis.format_table`.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from types import FrameType
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Optional,
                    Sequence)

from .._telemetry import measure_cache_delta, sum_cache_deltas
from ..exceptions import JobTimeoutError, SpecificationError
from ..resilience.faults import fault_point, faults_active
from ..resilience.retry import RetryPolicy, execute_with_retry
from .jobs import BatchJob, JobResult

if TYPE_CHECKING:
    from ..serve.store import ResultStore

EXECUTORS = ("process", "thread", "serial")

#: Diagnostics embedded per job result (counts stay exact; the payload
#: crosses a process boundary, so the op-level list is capped).
MAX_LINT_DIAGNOSTICS_PER_JOB = 25

#: Worker-death resubmissions a pooled job may take before it is
#: recorded as a failure (a poison job that kills every worker it touches
#: converges after ``max_pool_restarts`` private re-runs).
DEFAULT_MAX_POOL_RESTARTS = 2


def _alarm_supported() -> bool:
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


def refuse_thread_timeout(executor: str, timeout_s: Optional[float]) -> None:
    """A per-job timeout must hold, so thread workers refuse one.

    The deadline is a ``SIGALRM`` timer, and only a process's main
    thread receives signals: a job on a worker thread cannot be
    interrupted.
    """
    if timeout_s and executor == "thread":
        raise SpecificationError(
            "a per-job timeout cannot be enforced on thread workers "
            "(SIGALRM only interrupts a process's main thread); use the "
            "process executor or drop the timeout")


#: Process-local: heavy third-party imports are warmed once per process.
_imports_warmed = False


def _warm_heavy_imports() -> None:
    """Import lazily-loaded heavy dependencies before arming SIGALRM.

    A ``JobTimeoutError`` raised while a module is mid-execution removes
    the half-initialised module from ``sys.modules``; the next job
    re-executes it from scratch, tripping import-time registries
    (networkx's backend dispatch raises ``KeyError: Algorithm already
    exists``) and poisoning every later job in the process.  Paying the
    import cost up front keeps alarm deliveries out of import machinery
    entirely.  ``tracemalloc`` is warmed for the same reason: pytest's
    unraisable-exception hook imports it lazily, and an alarm landing in
    that import used to fail otherwise-healthy timeout tests.
    """
    global _imports_warmed
    if _imports_warmed:
        return
    import tracemalloc  # noqa: F401  (lazily imported by pytest's hooks)

    import networkx  # noqa: F401  (lazily imported by problems/arch/compiler)
    _imports_warmed = True


def _inside_import_machinery(frame: Optional[FrameType]) -> bool:
    """Is any frame on the stack executing the import system?

    Raising from the alarm handler while ``importlib`` is mid-module
    leaves a half-initialised module behind (see
    :func:`_warm_heavy_imports`); deferring to the next itimer re-fire
    (50 ms) costs nothing and keeps the interpreter consistent.
    """
    while frame is not None:
        if frame.f_globals.get("__name__", "").startswith("importlib"):
            return True
        frame = frame.f_back
    return False


#: The alarm's re-fire interval, and its floor once it has raised.
_REFIRE_S = 0.05


class _deadline:
    """Context manager arming SIGALRM for ``seconds``.

    Raises :class:`SpecificationError` when the alarm cannot fire here
    (no ``SIGALRM``, or not the main thread) rather than run unbounded.
    """

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self.armed = False
        self.disarming = False
        self.fired = False

    def __enter__(self) -> "_deadline":
        if not (self.seconds and self.seconds > 0):
            return self
        if not _alarm_supported():
            raise SpecificationError(
                f"a per-job timeout of {self.seconds}s cannot be enforced "
                f"here: SIGALRM only fires on a process's main thread")
        _warm_heavy_imports()

        def _on_alarm(signum: int, frame: Optional[FrameType]) -> None:
            # Deferral cases (the re-fire interval retries in 50 ms):
            # mid-disarm — a raise here would skip the setitimer(0) below
            # and leak an armed timer into caller code; mid-import — a
            # raise would evict a half-initialised module from
            # sys.modules and poison every later job in this process.
            if self.disarming or _inside_import_machinery(frame):
                return
            # Still inside __enter__: a raise here would leave it before
            # the ``with`` body starts, so __exit__ would never restore
            # the previous handler.  The deadline has passed all the
            # same; the re-fire or __exit__ reports it.
            if not self.armed:
                self.fired = True
                return
            # Once raised, re-fire no sooner than _REFIRE_S: a sub-ms
            # interval could land a second raise while the first one
            # unwinds, before __exit__ sets ``disarming``, and skip the
            # disarm.  The re-fire itself stays, for a raise swallowed
            # inside a GC callback.
            signal.setitimer(signal.ITIMER_REAL, _REFIRE_S, _REFIRE_S)
            self.fired = True
            raise JobTimeoutError(
                f"job exceeded the per-job timeout of {self.seconds}s")
        self._previous = signal.signal(signal.SIGALRM, _on_alarm)
        # Re-fire until disarmed: a single delivery can land while the
        # interpreter is inside a GC callback, where the raise is
        # swallowed as an unraisable exception and the job would
        # silently run to completion.
        signal.setitimer(signal.ITIMER_REAL, self.seconds,
                         min(self.seconds, _REFIRE_S))
        self.armed = True
        return self

    def __exit__(self, *exc: object) -> bool:
        self.disarming = True
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        if self.fired and exc[0] is None:
            # Every raise was swallowed inside GC callbacks and the job
            # ran to completion past its deadline: it still timed out.
            raise JobTimeoutError(
                f"job exceeded the per-job timeout of {self.seconds}s")
        return False


def _clear_leaked_alarm(timeout_s: Optional[float]) -> None:
    """Defensively kill any itimer that escaped ``_deadline.__exit__``.

    A signal delivered in the few bytecodes *before* ``__exit__`` sets
    its guard can raise through the disarm path; this backstop (run as a
    job's failure path starts and once more as the job ends, off the hot
    path) guarantees no timer survives into caller code.
    """
    if timeout_s and _alarm_supported():
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def _run_job(job: BatchJob, timeout_s: Optional[float],
             scratch: Dict) -> Dict:
    """One compilation attempt; raises on failure, returns the record.

    ``scratch`` carries per-attempt side artefacts (the lint payload)
    out of the attempt even when a later step — validation — fails it.
    """
    scratch.clear()
    with _deadline(timeout_s):
        fault_point("batch.job", job.name)
        from .jobs import resolve_compiler

        coupling, problem, noise = job.build()
        compiler = resolve_compiler(job.method)
        options = dict(job.options)
        options.setdefault("layers", job.layers)
        options.setdefault("mixer", job.mixer)
        result = compiler(coupling, problem, noise=noise,
                          gamma=job.gamma, **options)
        if job.lint:
            # One scan serves both: validation reads the lint report, so
            # the payload survives a rejection.
            from ..ir.validate import validate_lint_report
            from ..lint import lint_result, render_json

            report = lint_result(result, coupling, problem)
            scratch["lint"] = render_json(
                report, max_diagnostics=MAX_LINT_DIAGNOSTICS_PER_JOB)
            if job.validate:
                validate_lint_report(report)
        elif job.validate:
            result.validate(coupling, problem)
        return result.to_record()


def execute_job(job: BatchJob, timeout_s: Optional[float] = None,
                retry: Optional[RetryPolicy] = None) -> JobResult:
    """Run one job to a :class:`JobResult`; never raises.

    This is the module-level worker entry point (must stay picklable for
    ``ProcessPoolExecutor``).  The compiler is resolved by name through
    the single method registry (:mod:`repro.pipeline.registry`), so any
    registered method — paper preset or baseline — batch-compiles without
    engine changes.  The per-job cache delta is measured around the whole
    job — including coupling/problem construction — so methods whose
    passes touch no cache still report cache reuse.

    With a ``retry`` policy, transient failures re-attempt in-worker
    (each attempt re-arms the full per-job deadline); the per-attempt
    records land in :attr:`JobResult.attempts`.  Without one, a single
    attempt runs with zero retry-machinery overhead.

    The cache delta is measured with a thread-scoped
    :class:`~repro._telemetry.CacheDeltaScope`, not global-counter
    snapshots, so concurrent jobs in one process (thread executor, the
    serve daemon) each see exactly their own hits and misses.
    """
    start = time.perf_counter()
    scratch: Dict = {}
    try:
        if retry is None:
            with measure_cache_delta() as scope:
                try:
                    record = _run_job(job, timeout_s, scratch)
                except Exception as exc:  # job failure, not batch abort
                    _clear_leaked_alarm(timeout_s)
                    return JobResult(
                        job=job, ok=False,
                        wall_time_s=time.perf_counter() - start,
                        cache=scope.delta(),
                        error=str(exc), error_type=type(exc).__name__,
                        lint=scratch.get("lint"))
            return JobResult(
                job=job, ok=True,
                wall_time_s=time.perf_counter() - start,
                record=record, cache=scope.delta(),
                lint=scratch.get("lint"))
        with measure_cache_delta() as scope:
            outcome = execute_with_retry(
                lambda: _run_job(job, timeout_s, scratch), retry,
                key=job.name)
        wall = time.perf_counter() - start
        cache = scope.delta()
        if outcome.ok:
            return JobResult(job=job, ok=True, wall_time_s=wall,
                             record=outcome.value, cache=cache,
                             lint=scratch.get("lint"),
                             attempts=outcome.attempts)
        error = outcome.error
        assert error is not None
        return JobResult(job=job, ok=False, wall_time_s=wall, cache=cache,
                         error=str(error), error_type=type(error).__name__,
                         lint=scratch.get("lint"),
                         attempts=outcome.attempts)
    finally:
        _clear_leaked_alarm(timeout_s)


@dataclass
class BatchReport:
    """Everything ``compile_many`` learned, in job order."""

    #: Bumped whenever :meth:`to_json` changes shape.  2 added
    #: ``schema_version`` itself plus the resilience aggregates
    #: (``pool_restarts``, ``resumed_jobs``, ``retry_totals``,
    #: ``degraded_jobs``, per-job ``attempts``).  3 dropped
    #: ``timeout_enforced``: a timeout that cannot hold is now refused.
    #: 3 also made ``pool_restarts`` count breakages of the shared
    #: executor; 2 counted resubmission rounds (a poison job with a
    #: budget of 2 reported 2 there, 1 now).
    #: 4 replaced the stage-bucket totals with ``pass_totals``.
    SCHEMA_VERSION = 4

    results: List[JobResult]
    wall_time_s: float
    workers: int
    executor: str
    timeout_s: Optional[float] = None
    #: Breakages of the shared executor recovered by resubmitting the
    #: jobs they took down (dead workers).
    pool_restarts: int = 0
    #: Jobs whose results were read from the result store instead of
    #: being recompiled.
    resumed_jobs: int = 0

    @property
    def ok(self) -> List[JobResult]:
        return [r for r in self.results if r.ok]

    @property
    def failures(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    def cache_totals(self) -> Dict[str, Dict[str, int]]:
        """Summed per-job cache deltas: proof of cross-job memoization."""
        return sum_cache_deltas(result.cache for result in self.results)

    def lint_totals(self) -> Dict[str, Dict[str, int]]:
        """Aggregated lint findings across every linted job.

        ``{"counts": {severity: n}, "by_rule": {code: n}}``; empty dicts
        when no job ran with ``lint=True``.
        """
        counts: Dict[str, int] = {}
        by_rule: Dict[str, int] = {}
        for result in self.results:
            if not result.lint:
                continue
            for severity, n in result.lint.get("counts", {}).items():
                counts[severity] = counts.get(severity, 0) + n
            for code, n in result.lint.get("by_rule", {}).items():
                by_rule[code] = by_rule.get(code, 0) + n
        return {"counts": dict(sorted(counts.items())),
                "by_rule": dict(sorted(by_rule.items()))}

    @property
    def lint_errors(self) -> int:
        """Total error-severity diagnostics across all linted jobs."""
        return self.lint_totals()["counts"].get("error", 0)

    def retry_totals(self) -> Dict[str, int]:
        """Aggregated retry activity across all jobs.

        ``retries`` — backoff-then-retry transitions taken;
        ``retried_jobs`` — jobs that needed more than one attempt;
        ``recovered_jobs`` — of those, the ones that ended ``ok``.
        """
        retried = [r for r in self.results if r.attempts]
        return {
            "retries": sum(r.retries for r in self.results),
            "retried_jobs": len(retried),
            "recovered_jobs": sum(1 for r in retried if r.ok),
        }

    @property
    def degraded_jobs(self) -> int:
        """Jobs whose compiler fell back to a cheaper method mid-run."""
        return sum(1 for r in self.results if r.degraded)

    def pass_totals(self) -> Dict[str, float]:
        """Summed non-skipped pass seconds per pass name, over ok jobs."""
        totals: Dict[str, float] = {}
        for result in self.ok:
            for record in result.telemetry.get("passes", []):
                if not record["skipped"]:
                    name = record["name"]
                    totals[name] = totals.get(name, 0.0) + record["wall_s"]
        return totals

    def compile_time_s(self) -> float:
        """Summed in-worker job seconds (the serial-equivalent cost)."""
        return sum(r.wall_time_s for r in self.results)

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for r in self.results:
            if r.ok:
                out.append([r.job.name, "ok", r.record.get("depth"),
                            r.record.get("cx"), r.record.get("swaps"),
                            round(r.wall_time_s, 3)])
            else:
                out.append([r.job.name, f"FAILED ({r.error_type})",
                            "-", "-", "-", round(r.wall_time_s, 3)])
        return out

    def summary(self) -> str:
        lines = [
            f"{len(self.ok)}/{len(self.results)} jobs ok, "
            f"{len(self.failures)} failed; wall {self.wall_time_s:.2f}s "
            f"({self.compile_time_s():.2f}s of work, {self.workers} "
            f"{self.executor} worker(s))"]
        for name, totals in sorted(self.cache_totals().items()):
            lines.append(f"cache {name}: {totals['hits']} hits / "
                         f"{totals['misses']} misses")
        if any(r.lint for r in self.results):
            totals = self.lint_totals()
            rules = ", ".join(f"{code}x{n}"
                              for code, n in totals["by_rule"].items())
            lines.append(
                f"lint: {totals['counts'].get('error', 0)} error(s), "
                f"{totals['counts'].get('warning', 0)} warning(s)"
                + (f" [{rules}]" if rules else ""))
        retry = self.retry_totals()
        if retry["retries"]:
            lines.append(
                f"retries: {retry['retries']} across "
                f"{retry['retried_jobs']} job(s), "
                f"{retry['recovered_jobs']} recovered")
        if self.pool_restarts:
            lines.append(
                f"note: the worker pool was restarted "
                f"{self.pool_restarts} time(s) after worker death")
        if self.resumed_jobs:
            lines.append(
                f"resumed: {self.resumed_jobs} job(s) read from the "
                f"result store, {len(self.results) - self.resumed_jobs} "
                f"compiled this run")
        if self.degraded_jobs:
            lines.append(
                f"degraded: {self.degraded_jobs} job(s) fell back to a "
                f"cheaper method (see extra['degraded'])")
        return "\n".join(lines)

    def to_json(self) -> Dict:
        """JSON-serializable dump (specs, records, errors, aggregates)."""
        return {
            "schema_version": self.SCHEMA_VERSION,
            "wall_time_s": self.wall_time_s,
            "workers": self.workers,
            "executor": self.executor,
            "timeout_s": self.timeout_s,
            "pool_restarts": self.pool_restarts,
            "resumed_jobs": self.resumed_jobs,
            "cache_totals": self.cache_totals(),
            "pass_totals": self.pass_totals(),
            "lint_totals": self.lint_totals(),
            "retry_totals": self.retry_totals(),
            "degraded_jobs": self.degraded_jobs,
            "jobs": [
                {
                    "name": r.job.name,
                    "spec": {
                        "arch": r.job.arch, "n_qubits": r.job.n_qubits,
                        "workload": r.job.workload,
                        "density": r.job.density, "seed": r.job.seed,
                        "method": r.job.method, "layers": r.job.layers,
                        "mixer": r.job.mixer,
                    },
                    "ok": r.ok,
                    "wall_time_s": r.wall_time_s,
                    "record": r.record,
                    "cache": r.cache,
                    "lint": r.lint,
                    "error": r.error,
                    "error_type": r.error_type,
                    "attempts": r.attempts,
                }
                for r in self.results
            ],
        }


def default_workers(n_jobs: int) -> int:
    """Pool size: one worker per job up to the machine's CPU count."""
    return max(1, min(n_jobs, os.cpu_count() or 1))


def compile_many(
    jobs: Iterable[BatchJob],
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    executor: str = "process",
    retry: Optional[RetryPolicy] = None,
    store: Optional[ResultStore] = None,
    max_pool_restarts: int = DEFAULT_MAX_POOL_RESTARTS,
) -> BatchReport:
    """Compile every job, fanning out over a worker pool.

    Parameters
    ----------
    jobs:
        Picklable :class:`BatchJob` specs; results preserve this order.
    workers:
        Pool size (default: one per job, capped at CPU count).  ``0`` or
        ``1`` degrades to the in-process serial path.
    timeout_s:
        Per-job wall-clock budget, enforced in-worker via ``SIGALRM``; an
        overrun becomes an ``ok=False`` ``JobTimeoutError`` record.  The
        thread executor refuses one (:class:`SpecificationError`), since
        nothing can interrupt a worker thread.
    executor:
        ``"process"`` (default), ``"thread"`` (GIL-bound, no timeouts —
        mostly for debugging), or ``"serial"``.
    retry:
        Optional :class:`~repro.resilience.retry.RetryPolicy`; transient
        job failures re-attempt in-worker with backoff.  ``None`` (the
        default) keeps the historic single-attempt behavior.
    store:
        A :class:`~repro.serve.store.ResultStore`.  Jobs it already
        holds are read from it (counted in ``resumed_jobs``), and every
        ``ok`` result is durably published to it as it finishes, so a
        re-run after a crash compiles only the remainder and reports
        the same per-job records as an uninterrupted run.  Failed jobs
        are never stored, so they are recompiled.
    max_pool_restarts:
        Resubmissions a job may take after its worker died before it is
        recorded as a failure (:class:`~repro.batch.pool.PersistentPool`).
    """
    if executor not in EXECUTORS:
        raise SpecificationError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    job_list = list(jobs)
    if workers is None:
        workers = default_workers(len(job_list))
    if workers < 0:
        raise SpecificationError(f"workers must be >= 0 (got {workers})")
    if max_pool_restarts < 0:
        raise SpecificationError(
            f"max_pool_restarts must be >= 0 (got {max_pool_restarts})")
    refuse_thread_timeout(executor, timeout_s)
    # A malformed REPRO_FAULT_PLAN must abort the sweep here, not surface
    # later as per-job failures inside workers.
    faults_active()
    start = time.perf_counter()

    results: List[Optional[JobResult]] = [None] * len(job_list)
    fingerprints: List[str] = []
    if store is not None:
        # Never a fresh import: building ``store`` loaded the module.
        from ..serve.store import spec_fingerprint

        fingerprints = [spec_fingerprint(job) for job in job_list]
        results = [store.get_result(job, fingerprint)
                   for job, fingerprint in zip(job_list, fingerprints)]
    resumed_jobs = sum(1 for r in results if r is not None)
    pending = [index for index, r in enumerate(results) if r is None]

    def finish(index: int, result: JobResult) -> None:
        results[index] = result
        if store is not None:
            store.put(fingerprints[index], job_list[index], result)
        fault_point("batch.collect", job_list[index].name)

    pool_restarts = 0
    if executor == "serial" or workers <= 1 or len(pending) <= 1:
        workers, executor = 1, "serial"
    if executor == "serial":
        for index in pending:
            finish(index, execute_job(job_list[index], timeout_s, retry))
    else:
        from .pool import PersistentPool

        with PersistentPool(workers, executor, timeout_s, retry) as pool:
            futures = [(index, pool.submit(job_list[index],
                                           max_pool_restarts))
                       for index in pending]
            for index, future in futures:
                finish(index, future.result())
        pool_restarts = pool.restarts
    return BatchReport(_completed(results), time.perf_counter() - start,
                       workers=workers, executor=executor,
                       timeout_s=timeout_s, pool_restarts=pool_restarts,
                       resumed_jobs=resumed_jobs)


def _completed(results: List[Optional[JobResult]]) -> List[JobResult]:
    """Narrow the slot list once every index has been finished."""
    done = [r for r in results if r is not None]
    assert len(done) == len(results), "unfinished job slot in results"
    return done


def jobs_for(
    archs: Sequence[str],
    n_qubits: int,
    methods: Sequence[str] = ("hybrid",),
    workloads: Sequence[str] = ("rand",),
    density: float = 0.3,
    seeds: Sequence[int] = (0,),
    **job_kwargs: Any,
) -> List[BatchJob]:
    """The cartesian product helper behind ``python -m repro batch``."""
    return [
        BatchJob(arch=arch, n_qubits=n_qubits, workload=workload,
                 density=density, seed=seed, method=method, **job_kwargs)
        for arch in archs
        for workload in workloads
        for method in methods
        for seed in seeds
    ]
