"""Deterministic, seeded fault injection for chaos testing.

Production resilience claims are worthless until a fault actually
happens; this module makes faults *happen on demand*, deterministically,
at named **fault points** compiled into the real code paths:

========================  ====================================================
site                      where it fires
========================  ====================================================
``batch.job``             inside a worker, at the start of every job attempt
                          (detail: the job name)
``batch.collect``         in the batch parent, after each result is recorded
                          (detail: the job name)
``pipeline.pass``         before every pipeline pass runs (detail: pass name)
``solver.solve``          at entry of :func:`repro.solver.solve_depth_optimal`
``solver.expand``         on every solver node expansion
``serve.request``         in the serve daemon, as each normalized compile
                          request starts (detail: ``job-name:fingerprint``)
``serve.store_write``     inside a result-store publish, after the temp file
                          is written but before the atomic rename (detail:
                          the fingerprint) — a kill here models a crash
                          mid-write
========================  ====================================================

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules.  Each rule
names a site, an optional substring ``match`` against the site's detail
string, a 0-based occurrence index ``at``, a repeat count ``times``, and
an ``action``:

* ``"raise"`` — raise an error of the named class (``error`` key of
  :data:`ERROR_CLASSES`; default a :class:`~repro.exceptions.TransientError`);
* ``"timeout"`` — raise :class:`~repro.exceptions.JobTimeoutError`,
  simulating a per-job deadline expiry without waiting for one;
* ``"sleep"`` — block for ``seconds`` (drives *real* ``SIGALRM``
  deadlines past their budget);
* ``"kill"`` — ``os._exit(exit_code)``: the process dies mid-job with no
  cleanup, exactly like an OOM kill.  In a pool worker this surfaces as
  ``BrokenProcessPool`` in the parent; in a serial run the whole sweep
  dies (the result store given with ``--store`` is what survives).

Activation is either explicit and process-local::

    with active_plan(FaultPlan([FaultSpec(site="batch.job", at=1)])):
        compile_many(jobs, executor="serial")

or via the environment — ``REPRO_FAULT_PLAN`` holds the plan's JSON (or
``@/path/to/plan.json``), which is how a chaos test reaches a CLI
subprocess and its pool workers::

    REPRO_FAULT_PLAN=$(python -c 'print(plan.to_env())') python -m repro batch ...

When no plan is active a :func:`fault_point` call is one module-global
load and an ``is None`` test — effectively free, so the hooks stay
compiled into hot paths (including the solver's expansion loop)
unconditionally.

Determinism: rules trigger on exact per-process hit counts, never on
wall clocks or randomness, so a chaos test replays identically on every
run.  Hit counters are per :class:`FaultPlan` instance; under the
``fork`` start method pool workers inherit the parent's plan *and* its
counters at fork time, then count independently.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from ..exceptions import (CompilationError, JobTimeoutError,
                          ResourceExhaustedError, SolverError,
                          SolverExhaustedError, SpecificationError,
                          TransientError, ValidationError)

#: Environment variable carrying a serialized plan (JSON, or ``@file``).
ENV_VAR = "REPRO_FAULT_PLAN"

#: Every registered fault-point site name (the module table above).
#: ``fault_point`` calls must use one of these — the CK021 static check
#: enforces it — so a typo'd site can never make a chaos plan
#: vacuously pass.  Extend this tuple (and the table) when compiling a
#: new injection site into a code path.
KNOWN_SITES: Tuple[str, ...] = ("batch.job", "batch.collect",
                                "pipeline.pass", "solver.solve",
                                "solver.expand", "serve.request",
                                "serve.store_write")

ACTIONS = ("raise", "timeout", "sleep", "kill")

#: ``error`` key -> exception class for ``action="raise"``.
ERROR_CLASSES: Dict[str, Type[BaseException]] = {
    "transient": TransientError,
    "resource": ResourceExhaustedError,
    "solver": SolverError,
    "solver_exhausted": SolverExhaustedError,
    "timeout": JobTimeoutError,
    "compilation": CompilationError,
    "validation": ValidationError,
    "runtime": RuntimeError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *where*, *when*, and *what kind of* fault."""

    #: Fault-point name this rule listens on (see the module table).
    site: str
    #: What happens when the rule fires.
    action: str = "raise"
    #: Exception class key (:data:`ERROR_CLASSES`) for ``"raise"``.
    error: str = "transient"
    #: 0-based index of the first matching hit that fires.
    at: int = 0
    #: How many consecutive matching hits fire (from ``at``).
    times: int = 1
    #: Substring filter against the site's detail string ("" matches all).
    match: str = ""
    #: Custom message for raised errors.
    message: str = ""
    #: Sleep duration for ``action="sleep"``.
    seconds: float = 0.0
    #: Process exit status for ``action="kill"`` (134 = SIGABRT-style).
    exit_code: int = 134

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise SpecificationError(f"unknown fault action {self.action!r}; "
                             f"expected one of {ACTIONS}")
        if self.action == "raise" and self.error not in ERROR_CLASSES:
            raise SpecificationError(
                f"unknown fault error class {self.error!r}; expected one "
                f"of {tuple(ERROR_CLASSES)}")
        if self.at < 0 or self.times < 1:
            raise SpecificationError(
                f"need at >= 0 and times >= 1 (got at={self.at}, "
                f"times={self.times})")

    def fire(self) -> None:
        """Perform this rule's fault action (may raise or exit)."""
        if self.action == "kill":
            os._exit(self.exit_code)
        if self.action == "sleep":
            time.sleep(self.seconds)
            return
        if self.action == "timeout":
            raise JobTimeoutError(
                self.message or f"injected timeout at {self.site!r}")
        raise ERROR_CLASSES[self.error](
            self.message
            or f"injected {self.error} fault at {self.site!r}")


class FaultPlan:
    """An ordered set of :class:`FaultSpec` rules with hit counters."""

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        #: Matching hits seen per spec (indexes align with ``specs``).
        self.hits: List[int] = [0] * len(self.specs)
        #: Faults actually fired per spec (sleep counts as fired).
        self.fired: List[int] = [0] * len(self.specs)

    def trigger(self, site: str, detail: Optional[str]) -> None:
        """Count a hit on ``site`` and fire whichever rule matches it."""
        for index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.match and spec.match not in (detail or ""):
                continue
            hit = self.hits[index]
            self.hits[index] = hit + 1
            if spec.at <= hit < spec.at + spec.times:
                self.fired[index] += 1
                spec.fire()

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"version": 1,
                "faults": [asdict(spec) for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        if not isinstance(data, dict) or "faults" not in data:
            raise SpecificationError(
                "fault plan JSON must be an object with a 'faults' list")
        faults = data["faults"]
        if not isinstance(faults, list):
            raise SpecificationError("'faults' must be a list of fault specs")
        return cls([FaultSpec(**spec) for spec in faults])

    def to_env(self) -> str:
        """The compact JSON string to put in :data:`ENV_VAR`."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    def __repr__(self) -> str:
        return f"FaultPlan({self.specs!r})"


#: Sentinel: the environment has not been consulted yet in this process.
_UNLOADED = object()

#: ``_UNLOADED`` | ``None`` (inactive) | the active :class:`FaultPlan`.
_state: object = _UNLOADED


def _load_env_plan() -> Optional[FaultPlan]:
    """Resolve :data:`ENV_VAR` into the process-wide plan (once)."""
    global _state
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        _state = None
        return None
    try:
        if raw.startswith("@"):
            with open(raw[1:], encoding="utf-8") as handle:
                raw = handle.read()
        plan = FaultPlan.from_dict(json.loads(raw))
    except (OSError, ValueError, TypeError) as exc:
        raise SpecificationError(f"invalid {ENV_VAR}: {exc}") from exc
    _state = plan
    return plan


def fault_point(site: str, detail: Optional[str] = None) -> None:
    """A named injection site; free when no plan is active.

    Call this from real code paths with a stable ``site`` name (and an
    optional detail string rules can ``match`` on).  With no active plan
    this is a global load plus an ``is None`` test.
    """
    plan = _state
    if plan is None:
        return
    if plan is _UNLOADED:
        plan = _load_env_plan()
        if plan is None:
            return
    assert isinstance(plan, FaultPlan)
    plan.trigger(site, detail)


def faults_active() -> bool:
    """Is any fault plan (explicit or environment) currently active?"""
    if _state is _UNLOADED:
        _load_env_plan()
    return _state is not None


def current_plan() -> Optional[FaultPlan]:
    """The active plan, if any (for assertions on hit/fired counters)."""
    if _state is _UNLOADED:
        _load_env_plan()
    return _state if isinstance(_state, FaultPlan) else None


def reset() -> None:
    """Forget any loaded plan; the environment is re-read on next use."""
    global _state
    _state = _UNLOADED


@contextmanager
def active_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Explicitly activate ``plan`` for the current process (tests).

    Pool workers forked while the plan is active inherit it (and its
    counters as of fork time).  On exit the previous state is restored.
    """
    global _state
    previous = _state
    _state = plan
    try:
        yield plan
    finally:
        _state = previous
