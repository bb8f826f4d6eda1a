"""Pass and Pipeline: the compiler's composable spine.

A :class:`Pass` is one stage of Fig 18's workflow — placement, pattern
selection, greedy processing, ATA-suffix prediction, cost-F selection —
expressed as a stateless object with a ``run(context)`` method.  A
:class:`Pipeline` runs an ordered list of passes over one
:class:`~repro.pipeline.context.CompilationContext` and owns all the
cross-cutting plumbing the passes themselves should not care about:

* **per-pass telemetry** — one ``extra["passes"]`` record per pass run:
  its wall-clock seconds and the hit/miss deltas of the process-local
  distance-matrix/pattern caches (:mod:`repro._telemetry`) while it ran;
* **observability** — an optional ``on_pass_end(pass_, context, record)``
  callback fired after every pass, the seam for progress reporting,
  tracing, or future async execution.

A pass that had nothing to do (e.g. placement when an initial mapping was
supplied) returns ``False`` from ``run``; it still appears in
``extra["passes"]`` with ``skipped: True``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional

from .._telemetry import measure_cache_delta
from ..compiler.result import CompiledResult
from ..resilience.faults import fault_point
from .context import CompilationContext

#: Signature of the ``on_pass_end`` observability callback.
PassObserver = Callable[["Pass", CompilationContext, Dict], None]


class Pass:
    """One composable compilation stage.

    Subclasses set :attr:`name` (unique within a pipeline run, used in
    ``extra["passes"]``) and implement :meth:`run`.
    """

    #: Identity in ``extra["passes"]`` records.
    name: str = "pass"

    def run(self, context: CompilationContext) -> Optional[bool]:
        """Do this stage's work by mutating ``context``.

        Return ``False`` to mark the pass as skipped (recorded with
        ``skipped: True``); any other return value means the pass did
        real work.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class Pipeline:
    """An ordered list of passes plus the telemetry plumbing around them."""

    def __init__(
        self,
        passes: Iterable[Pass],
        name: str = "",
        on_pass_end: Optional[PassObserver] = None,
    ) -> None:
        self.passes: List[Pass] = list(passes)
        self.name = name
        self.on_pass_end = on_pass_end

    def run(self, context: CompilationContext) -> CompilationContext:
        """Run every pass in order, recording per-pass telemetry.

        Appends one record per pass to ``context.extras["passes"]``
        (``name`` / ``wall_s`` / ``cache`` / ``skipped``).
        """
        records = context.extras.setdefault("passes", [])
        for pass_ in self.passes:
            fault_point("pipeline.pass", pass_.name)
            started = time.perf_counter()
            with measure_cache_delta() as scope:
                outcome = pass_.run(context)
            record = {
                "name": pass_.name,
                "wall_s": time.perf_counter() - started,
                "cache": scope.delta(),
                "skipped": outcome is False,
            }
            records.append(record)
            if self.on_pass_end is not None:
                self.on_pass_end(pass_, context, record)
        return context

    def compile(self, context: CompilationContext) -> CompiledResult:
        """Run the pipeline and package the context as a result."""
        started = time.perf_counter()
        self.run(context)
        return context.to_result(time.perf_counter() - started)

    def __repr__(self) -> str:
        stages = ", ".join(p.name for p in self.passes)
        return f"Pipeline({self.name!r}: {stages})"
