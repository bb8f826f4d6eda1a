"""Semantic-validation pass.

Not part of the default presets (callers opt in, exactly as they opted
into ``CompiledResult.validate`` before), but any pipeline can append a
``ValidatePass`` to fail the compilation — rather than a later consumer —
when the produced circuit does not implement the problem from the chosen
initial mapping.
"""

from __future__ import annotations

from typing import Optional

from ..ir.validate import validate_compiled, validate_program
from .base import Pass
from .context import CompilationContext


class ValidatePass(Pass):
    """Check the compiled circuit with lint's blocking rules.

    Reads ``circuit`` and ``mapping``; raises
    :class:`repro.exceptions.ValidationError` when the circuit uses a
    non-existent coupling, drops a problem gate, or applies one under the
    wrong mapping.  ``allow_repeats`` (constructor argument, falling back
    to the context's ``allow_repeats`` knob) admits clique-style patterns
    that deliberately revisit pairs.  An attached program has each layer
    checked too, from its own recorded input mapping.

    On success it records ``extra["validated_edges"]`` (backwards
    compatible) plus ``extra["validate"]`` with everything
    :func:`~repro.ir.validate.validate_compiled` computed: distinct edge
    count, CPHASE/SWAP tallies and the final logical-to-physical layout.
    """

    name = "validate"

    def __init__(self, allow_repeats: Optional[bool] = None) -> None:
        self.allow_repeats = allow_repeats

    def run(self, context: CompilationContext) -> bool:
        context.require("circuit", "mapping")
        allow_repeats = (self.allow_repeats
                         if self.allow_repeats is not None
                         else bool(context.knob("allow_repeats", False)))
        report = validate_compiled(context.circuit, context.coupling.edges,
                                   context.mapping, context.problem.edges,
                                   allow_repeats=allow_repeats)
        context.extras["validated_edges"] = report.n_edges
        context.extras["validate"] = {
            "n_edges": report.n_edges,
            "n_cphase": report.n_cphase,
            "n_swap": report.n_swap,
            "allow_repeats": allow_repeats,
            "final_log_to_phys": list(report.final_mapping.log_to_phys)
            if report.final_mapping is not None else None,
        }
        if context.program is not None:
            context.extras["validate"]["program"] = validate_program(
                context.program, context.coupling.edges,
                context.problem.edges, allow_repeats=allow_repeats)
        return True
