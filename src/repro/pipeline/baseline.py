"""Adapter pass wrapping a baseline compiler as a pipeline stage.

Every baseline in :mod:`repro.baselines` is a plain function
``fn(coupling, problem, **options) -> CompiledResult``.  Wrapping it in a
:class:`BaselinePass` and running it through a single-stage
:class:`~repro.pipeline.base.Pipeline` gives baselines the exact same
telemetry envelope as the paper methods — one ``extra["passes"]``
record, named after the method, with its wall time and cache deltas —
which is what makes apples-to-apples comparison tables honest about
compile-time cost.
"""

from __future__ import annotations

from typing import Callable

from .base import Pass
from .context import CompilationContext


class BaselinePass(Pass):
    """Run one baseline compiler end to end.

    Reads ``knobs`` (forwarded verbatim as the baseline's keyword
    arguments) plus ``gamma``; writes ``context.baseline_result`` so the
    pipeline returns the baseline's own :class:`CompiledResult` — method
    label, wall time and any baseline-specific extras intact — with the
    pipeline telemetry merged into its ``extra``.
    """

    def __init__(self, method_name: str, fn: Callable,
                 forward_gamma: bool = True) -> None:
        self.name = method_name
        self.fn = fn
        self.forward_gamma = forward_gamma

    def run(self, context: CompilationContext):
        kwargs = dict(context.knobs)
        if self.forward_gamma:
            kwargs.setdefault("gamma", context.gamma)
        result = self.fn(context.coupling, context.problem, **kwargs)
        context.baseline_result = result
        context.circuit = result.circuit
        context.mapping = result.initial_mapping
        return True
