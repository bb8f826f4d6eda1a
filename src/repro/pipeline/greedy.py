"""The greedy-processing pass (Section 6.2).

One pass wraps :func:`repro.compiler.greedy.greedy_compile` for both the
pure-greedy method (runs to completion, the trace circuit is the final
circuit) and the hybrid method (its snapshots feed the candidate pool,
and the run is cycle-capped by the pure-ATA candidate's depth so a
schedule the selector could never pick is not computed in full).
"""

from __future__ import annotations

from ..compiler.greedy import greedy_compile
from ..exceptions import CompilationError
from .base import Pass
from .context import CompilationContext


class GreedyPass(Pass):
    """Run the greedy engine; write ``context.trace``.

    Reads ``mapping`` and the ``matching`` / ``crosstalk_aware`` /
    ``unify_swaps`` / ``greedy_cycle_cap`` knobs.  With
    ``as_result=True`` (the greedy preset) the engine runs to completion
    and the pass also publishes ``context.circuit``; a
    ``greedy_cycle_cap`` that stops it with pairs still pending raises
    :class:`~repro.exceptions.CompilationError`, since the capped
    circuit does not execute the whole problem.  Otherwise (the
    hybrid preset) the default cycle cap is ``3 * depth(cc0) + 50``
    where ``cc0`` is the pure-ATA candidate produced by the preceding
    ``PredictionPass`` — a greedy schedule three times deeper than the
    structured one can never win the selector.
    """

    name = "greedy"

    def __init__(self, as_result: bool = True) -> None:
        self.as_result = as_result

    def run(self, context: CompilationContext):
        context.require("mapping")
        max_cycles = context.knob("greedy_cycle_cap")
        if (max_cycles is None and not self.as_result
                and context.candidates):
            max_cycles = 3 * context.candidates[0].depth + 50
        trace = greedy_compile(
            context.coupling, context.problem, context.mapping,
            noise=context.noise, gamma=context.gamma,
            matching=context.knob("matching", "greedy"),
            crosstalk_aware=context.knob("crosstalk_aware", True),
            max_cycles=max_cycles,
            unify_swaps=context.knob("unify_swaps", True))
        context.trace = trace
        context.extras["greedy_cycles"] = trace.cycles
        if self.as_result:
            if trace.remaining:
                raise CompilationError(
                    f"greedy_cycle_cap={max_cycles} stopped the greedy "
                    f"engine with {len(trace.remaining)} problem pairs "
                    "left; the greedy method needs a complete run (raise "
                    "or drop the cap, or use method='hybrid', which "
                    "finishes a capped run with the ATA suffix)")
            context.circuit = trace.circuit
        return True
