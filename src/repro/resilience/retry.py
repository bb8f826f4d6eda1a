"""Retry policies: exponential backoff with deterministic jitter.

The transient/permanent split lives in the exception taxonomy
(:mod:`repro.exceptions`): :class:`~repro.exceptions.TransientError`
subclasses are retried, everything else fails fast.  Two refinements:

* **timeouts** (:class:`~repro.exceptions.JobTimeoutError`) are
  transient by classification but *not retried by default* — a
  deterministic job that blew its wall-clock budget once will blow it
  again.  ``RetryPolicy(retry_timeouts=True)`` opts in.
* **per-error-class rules** — ``retry_on`` adds exception *names*
  (e.g. ``"ConnectionError"``, ``"OSError"``) to the transient set for
  third-party errors that cannot subclass the taxonomy, and
  ``never_retry`` force-classifies names as permanent.  Names (not
  types) keep the policy picklable across the pool boundary.

Backoff for attempt *n* (1-based) is ``base_delay_s * multiplier**(n-1)``
capped at ``max_delay_s``, then scattered by **deterministic jitter**: a
CRC32 of ``f"{key}:{n}"`` maps to a factor in ``[1 - jitter, 1 + jitter]``,
so two jobs retrying simultaneously de-synchronize, yet the exact same
job replays the exact same schedule on every run — chaos tests can
assert recorded backoffs to the microsecond.

Every failed attempt appends a structured record to
:attr:`RetryOutcome.attempts`; the batch engine surfaces them as
``JobResult.attempts`` and sums them in ``BatchReport.retry_totals()``.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exceptions import (JobTimeoutError, SpecificationError,
                          TransientError)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-attempt transient failures, and how fast.

    Immutable and built from primitives only, so it pickles across the
    batch engine's process-pool boundary unchanged.
    """

    #: Total attempts, including the first (1 = no retries).
    max_attempts: int = 3
    #: Backoff before the first retry.
    base_delay_s: float = 0.05
    #: Exponential growth factor between retries.
    multiplier: float = 2.0
    #: Backoff ceiling.
    max_delay_s: float = 5.0
    #: Jitter half-width as a fraction of the delay (0 disables).
    jitter: float = 0.1
    #: Retry :class:`JobTimeoutError` too (off: deterministic overruns
    #: would just burn the budget again).
    retry_timeouts: bool = False
    #: Extra exception-type *names* treated as transient.
    retry_on: Tuple[str, ...] = ()
    #: Exception-type names always treated as permanent.
    never_retry: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SpecificationError(
                f"max_attempts must be >= 1 (got {self.max_attempts})")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise SpecificationError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise SpecificationError(
                f"multiplier must be >= 1 (got {self.multiplier})")
        if not 0.0 <= self.jitter < 1.0:
            raise SpecificationError(
                f"jitter must be in [0, 1) (got {self.jitter})")

    # -- classification -----------------------------------------------------

    def is_transient(self, exc: BaseException) -> bool:
        """Should ``exc`` be retried under this policy?"""
        for klass in type(exc).__mro__:
            if klass.__name__ in self.never_retry:
                return False
        if isinstance(exc, JobTimeoutError):
            return self.retry_timeouts
        if isinstance(exc, TransientError):
            return True
        return any(klass.__name__ in self.retry_on
                   for klass in type(exc).__mro__)

    # -- backoff schedule ---------------------------------------------------

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Backoff after failed attempt ``attempt`` (1-based).

        Deterministic: the jitter factor is a pure function of
        ``(key, attempt)``, never of a random generator or the clock.
        """
        delay = min(self.base_delay_s * self.multiplier ** (attempt - 1),
                    self.max_delay_s)
        if self.jitter:
            digest = zlib.crc32(f"{key}:{attempt}".encode("utf-8"))
            fraction = digest / 0xFFFFFFFF  # in [0, 1]
            delay *= 1.0 + self.jitter * (2.0 * fraction - 1.0)
        return delay


#: A policy that never retries — the engine's behavior when no policy is
#: configured, expressed in the same vocabulary.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay_s=0.0, jitter=0.0)


@dataclass
class RetryOutcome:
    """What :func:`execute_with_retry` observed across all attempts."""

    ok: bool
    value: Any = None
    error: Optional[BaseException] = None
    #: One record per *failed* attempt: ``attempt`` (1-based),
    #: ``error_type``, ``error``, ``transient``, and — when a retry
    #: followed — ``retried: True`` with the ``backoff_s`` slept.
    attempts: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def retries(self) -> int:
        """Backoff-then-retry transitions that actually happened."""
        return sum(1 for record in self.attempts if record.get("retried"))


def execute_with_retry(
    fn: Callable[[], Any],
    policy: RetryPolicy,
    key: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> RetryOutcome:
    """Run ``fn`` under ``policy``; never raises.

    ``key`` seeds the deterministic jitter (use a stable job identity).
    ``sleep`` is injectable so tests retire backoffs instantly while
    still asserting the recorded schedule.

    The outcome is the whole record of the run: ``attempts`` holds one
    entry per failure, ``retries`` counts the backoffs taken, and the
    last record's ``transient`` flag says whether the final failure
    outlived the budget (``True``) or was not retryable (``False``).
    """
    outcome = RetryOutcome(ok=False)
    for attempt in range(1, policy.max_attempts + 1):
        try:
            outcome.value = fn()
            outcome.ok = True
            return outcome
        except Exception as exc:
            transient = policy.is_transient(exc)
            record: Dict[str, Any] = {
                "attempt": attempt,
                "error_type": type(exc).__name__,
                "error": str(exc),
                "transient": transient,
            }
            outcome.attempts.append(record)
            outcome.error = exc
            if not transient or attempt == policy.max_attempts:
                return outcome
            backoff = policy.delay_s(attempt, key)
            record["retried"] = True
            record["backoff_s"] = backoff
            sleep(backoff)
    return outcome  # pragma: no cover — loop always returns


def call_with_retry(
    fn: Callable[[], Any],
    policy: RetryPolicy,
    key: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Like :func:`execute_with_retry` but re-raises the final failure."""
    outcome = execute_with_retry(fn, policy, key=key, sleep=sleep)
    if not outcome.ok:
        assert outcome.error is not None
        raise outcome.error
    return outcome.value
