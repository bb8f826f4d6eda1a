"""Resilience layer: fault injection and retries.

Production sweeps fail in ways unit tests never exercise — worker OOM
kills, flaky transient errors, exhausted solver budgets, interrupted
runs.  This package makes each failure mode (a) *injectable on demand*
so chaos tests prove the recovery path deterministically, and (b)
*survivable* through retry policies, pool restarts and graceful method
degradation:

* :mod:`repro.resilience.faults` — ``FaultPlan`` / ``fault_point``:
  deterministic fault injection at named sites in the batch engine,
  pass pipeline, and exact solver (env: ``REPRO_FAULT_PLAN``);
* :mod:`repro.resilience.retry` — ``RetryPolicy`` /
  ``execute_with_retry``: exponential backoff with deterministic
  jitter, driven by the transient/permanent split in
  :mod:`repro.exceptions`.

A sweep that dies outright resumes from the result store
(:class:`repro.serve.store.ResultStore`): ``compile_many(...,
store=...)`` and ``python -m repro batch --store DIR`` skip every job
the store already holds.

See ``docs/resilience.md`` for the full reference.
"""

from .faults import (ENV_VAR, FaultPlan, FaultSpec, active_plan,
                     current_plan, fault_point, faults_active)
from .retry import (NO_RETRY, RetryOutcome, RetryPolicy, call_with_retry,
                    execute_with_retry)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "fault_point",
    "faults_active",
    "active_plan",
    "current_plan",
    "ENV_VAR",
    "RetryPolicy",
    "RetryOutcome",
    "execute_with_retry",
    "call_with_retry",
    "NO_RETRY",
]
