"""In-pipeline static analysis pass.

Like :class:`~repro.pipeline.validate.ValidatePass`, ``LintPass`` is not
part of the default presets — callers append it (or pass ``lint=True``
to :func:`~repro.pipeline.presets.build_pipeline`).  Unlike the
validator it never raises by default: it records the full diagnostic
summary in ``extra["lint"]`` (counts, per-rule tallies, the first
diagnostics) and bumps the process-local ``lint.*`` event counters
(:func:`repro._telemetry.event_info`), so batch sweeps can see *every*
violation of every job instead of one exception per compilation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .._telemetry import count_event
from ..exceptions import LintError
from ..lint import render_json
from ..lint.engine import build_contexts, run_rules
from .base import Pass
from .context import CompilationContext

#: Diagnostics embedded per compilation; the counts stay exact.
MAX_EMBEDDED_DIAGNOSTICS = 25


class LintPass(Pass):
    """Run the circuit linter over the compiled circuit.

    Reads ``circuit`` and ``mapping``; writes ``extra["lint"]`` (the
    :func:`repro.lint.render_json` payload, diagnostics capped at
    :data:`MAX_EMBEDDED_DIAGNOSTICS`) and counts ``lint.runs``,
    ``lint.errors``, ``lint.warnings`` and ``lint.info`` events.

    Parameters
    ----------
    allow_repeats:
        Forwarded to the linter; ``None`` (default) reads the
        ``allow_repeats`` knob from the context, matching
        ``ValidatePass``.
    fail_on_error:
        When true, error-severity diagnostics raise
        :class:`repro.exceptions.LintError` after recording the full
        report — opt-in fail-fast with lossless diagnostics.
    select / ignore:
        Rule-code filters, as in :func:`repro.lint.lint_circuit`.
    """

    name = "lint"

    def __init__(self,
                 allow_repeats: Optional[bool] = None,
                 fail_on_error: bool = False,
                 select: Optional[Sequence[str]] = None,
                 ignore: Optional[Sequence[str]] = None) -> None:
        self.allow_repeats = allow_repeats
        self.fail_on_error = fail_on_error
        self.select = select
        self.ignore = ignore

    def run(self, context: CompilationContext) -> bool:
        context.require("circuit", "mapping")
        allow_repeats = (self.allow_repeats
                         if self.allow_repeats is not None
                         else bool(context.knob("allow_repeats", False)))
        report = run_rules(build_contexts(
            context.circuit, context.coupling.edges, context.mapping,
            context.problem.edges, program=context.program,
            allow_repeats=allow_repeats), self.select, self.ignore)
        context.extras["lint"] = render_json(
            report, max_diagnostics=MAX_EMBEDDED_DIAGNOSTICS)
        counts = report.counts()
        count_event("lint.runs")
        count_event("lint.errors", counts["error"])
        count_event("lint.warnings", counts["warning"])
        count_event("lint.info", counts["info"])
        if self.fail_on_error and not report.ok:
            first = report.errors[0]
            raise LintError(
                f"lint found {counts['error']} error(s); first: "
                f"{first.code} at {first.location()}: {first.message}")
        return True
