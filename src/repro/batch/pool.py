"""The one worker pool: warm workers plus the worker-death policy.

Both fan-out paths run on a :class:`PersistentPool`.  ``compile_many``
builds one per call; ``repro serve`` builds one at start-up and keeps it
hot, so workers survive across requests and their process-local memo
caches (distance matrices in :mod:`repro.arch.coupling`, ATA patterns in
:mod:`repro.ata.registry`) keep amortizing.

Jobs run through the same :func:`~repro.batch.engine.execute_job` entry
point as the serial path — per-job SIGALRM deadlines, retry policies and
structured failure capture all behave identically — and every submitted
future resolves to a :class:`JobResult`, never to ``BrokenExecutor``:
a worker that dies mid-job (OOM, segfault, injected ``kill`` fault) is
handled here, by the one policy both paths share (:meth:`_recover`).
"""

from __future__ import annotations

import functools
import os
import threading
from collections import deque
from concurrent.futures import (BrokenExecutor, Executor, Future,
                                ProcessPoolExecutor, ThreadPoolExecutor)
from typing import Deque, Dict, List, Optional, Tuple

from ..exceptions import SpecificationError
from ..resilience.retry import RetryPolicy
from .engine import (DEFAULT_MAX_POOL_RESTARTS, execute_job,
                     refuse_thread_timeout)
from .jobs import BatchJob, JobResult

#: Executors a persistent pool supports.  ``"serial"`` is deliberately
#: absent: a daemon must never compile on its event-loop thread, so the
#: closest equivalent is ``"thread"`` with one worker.
POOL_EXECUTORS = ("process", "thread")

__all__ = ["POOL_EXECUTORS", "PersistentPool"]

#: A job broken by a dead worker, waiting for a private one: the job,
#: its caller's future, its restart budget and the breakage it saw.
_Broken = Tuple[BatchJob, "Future[JobResult]", int, BaseException]


def default_pool_workers() -> int:
    """Pool size when unspecified: every core, floor one."""
    return os.cpu_count() or 1


class PersistentPool:
    """A warm worker pool that recovers from worker death on its own.

    Thread-safe: :meth:`submit` and :meth:`close` may be called from any
    thread (the serve daemon submits from its event loop while executor
    callbacks recover from a dead worker).
    """

    def __init__(self, workers: Optional[int] = None,
                 executor: str = "process",
                 timeout_s: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None) -> None:
        if executor not in POOL_EXECUTORS:
            raise SpecificationError(
                f"unknown pool executor {executor!r}; expected one of "
                f"{POOL_EXECUTORS}")
        if workers is None:
            workers = default_pool_workers()
        if workers < 1:
            raise SpecificationError(
                f"workers must be >= 1 (got {workers})")
        refuse_thread_timeout(executor, timeout_s)
        self.workers = workers
        self.executor = executor
        self.timeout_s = timeout_s
        self.retry = retry
        self._lock = threading.Lock()
        self._pool: Optional[Executor] = self._make(workers)
        #: Shared executors broken by a dead worker, waiting for a
        #: quarantine thread to shut them down: a callback of the broken
        #: executor cannot, and one garbage-collected mid-teardown
        #: deadlocks on its own lock.
        self._retired: List[Executor] = []
        #: Broken jobs waiting for a private worker, oldest first.
        self._quarantine: Deque[_Broken] = deque()
        #: Live quarantine threads; never more than ``workers``.
        self._drainers: List[threading.Thread] = []
        #: Jobs handed to a worker (store hits never count here).
        self.submitted = 0
        #: Breakages of the shared executor whose jobs were resubmitted.
        self.restarts = 0

    def _make(self, workers: int) -> Executor:
        if self.executor == "process":
            return ProcessPoolExecutor(max_workers=workers)
        return ThreadPoolExecutor(max_workers=workers)

    def submit(self, job: BatchJob,
               max_restarts: int = DEFAULT_MAX_POOL_RESTARTS
               ) -> "Future[JobResult]":
        """Dispatch one job to a warm worker; returns its future.

        The future always resolves to a :class:`JobResult`: job failures
        are structured records, and so is a job whose worker kept dying
        after ``max_restarts`` resubmissions.
        """
        outcome: Future[JobResult] = Future()
        # Running futures cannot be cancelled, so a caller that stops
        # waiting never makes the policy's set_result fail.
        outcome.set_running_or_notify_cancel()
        with self._lock:
            shared = self._pool
            if shared is None:
                raise SpecificationError(
                    "pool is closed; build a new PersistentPool")
            self.submitted += 1
            try:
                # ``execute_job`` is looked up here, at call time, so a
                # wrapper installed on this module's name reaches the
                # workers.
                inner = shared.submit(execute_job, job, self.timeout_s,
                                      self.retry)
            except BrokenExecutor as exc:
                refused: Optional[BrokenExecutor] = exc
            else:
                refused = None
        # Outside the lock: a future that is already done runs its
        # callback right here, and recovery takes the lock.
        if refused is not None:
            self._recover(shared, job, outcome, max_restarts, refused)
        else:
            inner.add_done_callback(functools.partial(
                self._settle, shared, job, outcome, max_restarts))
        return outcome

    def _settle(self, shared: Executor, job: BatchJob,
                outcome: "Future[JobResult]", max_restarts: int,
                inner: "Future[JobResult]") -> None:
        if inner.cancelled():
            outcome.set_result(JobResult(
                job=job, ok=False, error="the pool closed before the job "
                "ran", error_type="CancelledError"))
            return
        error = inner.exception()
        if isinstance(error, BrokenExecutor):
            # A broken process pool runs this callback on its own
            # management thread: touching that executor here would
            # deadlock, so recovery only records and hands off.
            self._recover(shared, job, outcome, max_restarts, error)
        elif error is not None:
            outcome.set_result(_failed(job, error))
        else:
            outcome.set_result(inner.result())

    def _recover(self, broken: Executor, job: BatchJob,
                 outcome: "Future[JobResult]", max_restarts: int,
                 error: BaseException) -> None:
        """The worker-death policy, shared by batch and serve.

        A dead worker breaks its executor: its own job *and* every job
        queued or in flight beside it fail with ``BrokenExecutor``.  The
        first caller to see a breakage of the shared executor rebuilds
        it, once, however many jobs it broke.  Each broken job is then
        queued for quarantine: at most ``workers`` threads each run one
        job at a time alone on a private one-worker executor, so a
        poison job can only ever break its own worker again, its peers
        always recover, and a breakage never forks more than ``workers``
        extra processes.  After ``max_restarts`` private runs the job
        becomes a structured failure.
        """
        with self._lock:
            closed = self._pool is None
            if self._pool is broken:
                self._retired.append(broken)
                self._pool = self._make(self.workers)
                if max_restarts > 0:
                    self.restarts += 1
            quarantined = not closed and max_restarts > 0
            if quarantined:
                self._quarantine.append((job, outcome, max_restarts, error))
            if (self._retired or self._quarantine) and not closed \
                    and len(self._drainers) < self.workers:
                drainer = threading.Thread(target=self._drain, daemon=True,
                                           name="repro-pool-quarantine")
                self._drainers.append(drainer)
                drainer.start()
        if not quarantined:
            outcome.set_result(_failed(job, error, "the pool is closed"
                                       if closed else
                                       _spent(max_restarts)))

    def _drain(self) -> None:
        """One quarantine thread: retire broken executors, then run queued
        broken jobs until none is left."""
        while True:
            with self._lock:
                retired, self._retired = self._retired, []
                entry = (self._quarantine.popleft() if self._quarantine
                         else None)
                if entry is None and not retired:
                    self._drainers.remove(threading.current_thread())
                    return
            for executor in retired:
                executor.shutdown(wait=True)
            if entry is not None:
                job, outcome, max_restarts, error = entry
                outcome.set_result(
                    self._run_alone(job, max_restarts, error))

    def _run_alone(self, job: BatchJob, max_restarts: int,
                   error: BaseException) -> JobResult:
        """Run ``job`` on private one-worker executors, up to
        ``max_restarts`` times while its worker keeps dying."""
        for _ in range(max_restarts):
            if self.closed:
                return _failed(job, error, "the pool is closed")
            # Leaving the block waits for the private worker to exit.
            with self._make(1) as private:
                try:
                    return private.submit(execute_job, job, self.timeout_s,
                                          self.retry).result()
                except BrokenExecutor as exc:
                    error = exc
                except Exception as exc:  # non-breakage pool failure
                    return _failed(job, exc)
        return _failed(job, error, _spent(max_restarts))

    def close(self) -> None:
        """Shut every worker down, quarantined ones included; idempotent."""
        with self._lock:
            shared, self._pool = self._pool, None
            retired, self._retired = self._retired, []
            drainers = list(self._drainers)
        for executor in retired + ([shared] if shared is not None else []):
            executor.shutdown(wait=True, cancel_futures=True)
        # Queued broken jobs fail fast once the pool is closed.
        for drainer in drainers:
            drainer.join()

    @property
    def closed(self) -> bool:
        return self._pool is None

    def stats(self) -> Dict[str, object]:
        """Plain-data pool telemetry for the serve stats endpoint."""
        return {
            "workers": self.workers,
            "executor": self.executor,
            "submitted": self.submitted,
            "restarts": self.restarts,
            "timeout_s": self.timeout_s,
            "closed": self.closed,
        }

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"PersistentPool(workers={self.workers}, "
                f"executor={self.executor!r}, "
                f"submitted={self.submitted}, restarts={self.restarts})")


def _spent(max_restarts: int) -> str:
    return f"the pool-restart budget ({max_restarts}) is spent"


def _failed(job: BatchJob, error: BaseException,
            reason: Optional[str] = None) -> JobResult:
    """The structured record of a job the pool could not run."""
    message = str(error) if reason is None else \
        f"worker died and {reason}: {error}"
    return JobResult(job=job, ok=False, error=message,
                     error_type=type(error).__name__)
