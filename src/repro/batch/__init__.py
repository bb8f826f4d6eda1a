"""Batch compilation: many instances, worker pools, caches, telemetry.

The sweep workloads in ``benchmarks/`` and ``repro.analysis.sweeps`` pay
the full pattern-generation and BFS-distance cost per instance when run
serially.  This package provides:

* :func:`compile_many` — fan :class:`BatchJob` specs out over a
  :class:`PersistentPool` with per-job timeouts and graceful
  per-instance failure capture, plus the resilience hooks
  (:mod:`repro.resilience`): retry policies, worker-death recovery,
  and resume from a :class:`~repro.serve.store.ResultStore`;
* process-local memoization of distance matrices and ATA patterns
  (:mod:`repro._telemetry`), with hit/miss counters surfaced both per
  job and aggregated in the :class:`BatchReport`;
* the ``python -m repro batch`` CLI subcommand built on top.

See ``docs/batch.md`` for the full reference.
"""

from .._telemetry import cache_info, clear_caches, measure_cache_delta
from ..exceptions import JobTimeoutError
from .engine import (BatchReport, compile_many, default_workers,
                     execute_job, jobs_for)
from .jobs import METHODS, WORKLOADS, BatchJob, JobResult, resolve_compiler
from .pool import POOL_EXECUTORS, PersistentPool

__all__ = [
    "PersistentPool",
    "POOL_EXECUTORS",
    "measure_cache_delta",
    "BatchJob",
    "JobResult",
    "BatchReport",
    "JobTimeoutError",
    "compile_many",
    "execute_job",
    "jobs_for",
    "default_workers",
    "resolve_compiler",
    "METHODS",
    "WORKLOADS",
    "cache_info",
    "clear_caches",
]
