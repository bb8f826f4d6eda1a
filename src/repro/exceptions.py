"""Exception hierarchy for the repro package.

Errors split along a **transient/permanent** axis that the resilience
layer (:mod:`repro.resilience`) keys on:

* :class:`TransientError` subclasses mark failures that may succeed if
  simply retried (worker hiccups, injected chaos faults, timeouts); the
  batch engine's retry policy re-attempts them with backoff.
* :class:`ResourceExhaustedError` subclasses mark a *bounded budget*
  running out (solver node budgets, memory caps).  Retrying the same
  work cannot help, but a cheaper strategy might — the ``optimal``
  method degrades to the greedy preset on
  :class:`SolverExhaustedError` instead of failing the job.

Everything else is permanent: retrying is wasted work and the failure
surfaces immediately.  :class:`SpecificationError` (and its subclasses)
marks the *caller-error* half of that permanent set — invalid job specs,
unknown knobs, unenforceable timeouts — distinct from genuine compilation
failures.

Every ``raise`` in the retry-reachable subsystems (``batch``,
``pipeline``, ``solver``, ``resilience``) must use a class defined in
this module; the CK020 static check (:mod:`repro.checkers`) enforces
that, because the retry layer silently treats unknown exception types
as permanent.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class TransientError(ReproError):
    """A failure that may succeed if the same work is retried.

    The retry policy (:mod:`repro.resilience.retry`) re-attempts these
    with exponential backoff; every other exception class is treated as
    permanent and fails fast.
    """


class ResourceExhaustedError(ReproError):
    """A bounded resource budget (nodes, memory, attempts) ran out.

    Not transient — retrying identical work exhausts the same budget —
    but eligible for *degradation* to a cheaper strategy where one is
    registered (see :class:`repro.pipeline.solver.SolverPass`).
    """


class SpecificationError(ReproError, ValueError):
    """An invalid job, method, knob or plan specification (caller error).

    Permanent by classification: the same spec fails identically on
    every attempt, so the retry layer must never re-run it.  Subclasses
    :class:`ValueError` because these sites historically raised plain
    ``ValueError`` — callers (and tests) catching that keep working.
    """


class UnknownKnobError(SpecificationError, TypeError):
    """A compile call passed a knob no method declares.

    Additionally subclasses :class:`TypeError` to match the historic
    "unexpected keyword argument" contract of ``compile_qaoa``.
    """


class ValidationError(ReproError):
    """A compiled circuit violates a hardware or semantic constraint."""


class ArchitectureError(ReproError):
    """An architecture was constructed or queried inconsistently."""


class CompilationError(ReproError):
    """The compiler could not produce a valid circuit."""


class SolverError(ReproError):
    """The depth-optimal solver failed (e.g. exceeded its node budget)."""


class SolverExhaustedError(SolverError, ResourceExhaustedError):
    """The exact solver ran out of its node budget.

    Subclasses both :class:`SolverError` (callers catching the historic
    type keep working) and :class:`ResourceExhaustedError` (the pipeline
    knows this instance is merely *too large*, not malformed, and may
    fall back to a heuristic method).
    """


class JobTimeoutError(TransientError):
    """A batch job exceeded its per-job wall-clock budget.

    Raised inside a worker by the ``SIGALRM`` deadline of
    :mod:`repro.batch.engine`.  Transient by classification, but the
    default retry policy does *not* re-attempt timeouts — a
    deterministic compilation that blew its budget once will blow it
    again (opt in with ``RetryPolicy(retry_timeouts=True)``).
    """
