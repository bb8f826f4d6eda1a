"""Pipeline stage exposing the depth-optimal solver as a method.

Registering :class:`SolverPass` behind the ``optimal`` method name (see
:mod:`repro.pipeline.registry`) gives the Section 4 exact search the same
envelope as every other compiler: it batch-compiles, shows up in
``available_methods()``, and lands its search counters in
``CompiledResult.extra["solver"]`` where sweep tables and the batch
report can read them.

The solver enumerates an exponential state space — it is intended for
the paper's discovery-scale instances (≲ 8 qubits).  The ``max_nodes``
knob bounds the search; when the budget is exhausted
(:class:`~repro.exceptions.SolverExhaustedError`) the pass **degrades
gracefully** by default: it falls back to the greedy preset's passes and
tags the result with ``extra["degraded"]`` provenance instead of failing
the job.  ``fallback=None`` (or ``""``) restores the historic hard
error, which is what ``python -m repro solve`` wants.
"""

from __future__ import annotations

from ..exceptions import ResourceExhaustedError, SpecificationError
from .base import Pass
from .context import CompilationContext

#: Fallback chains the pass knows how to run when the exact search
#: exhausts its budget, keyed by the ``fallback`` knob's value.
FALLBACKS = ("greedy",)


class SolverPass(Pass):
    """Run the exact depth-optimal search end to end.

    Reads the instance fields plus the knobs ``max_nodes``,
    ``use_heuristic``, ``minimize_swaps``, ``strategy`` and
    ``prune_unhelpful_swaps`` (defaults match
    :func:`repro.solver.solve_depth_optimal`); writes ``context.circuit``,
    ``context.mapping`` and ``extras["solver"]`` (the optimal depth plus
    the run's :class:`~repro.solver.SolverStats` counters).

    **Degradation** — resource exhaustion
    (:class:`~repro.exceptions.ResourceExhaustedError`: the node budget,
    or an injected resource fault) is recoverable when the ``fallback``
    knob names a chain (default ``"greedy"``): the pass runs the greedy
    preset's placement + greedy passes inline, records
    ``extras["degraded"]`` (``method``/``fallback``/``error_type``/
    ``reason``).  The compiled circuit is then *valid but not
    depth-optimal*.  Infeasibility errors (plain ``SolverError``) still
    raise: no fallback can fix an unsatisfiable instance, and silently
    compiling something else would be worse than failing.
    """

    name = "solve"

    def run(self, context: CompilationContext) -> bool:
        from ..solver import solve_depth_optimal

        try:
            result = solve_depth_optimal(
                context.coupling,
                context.problem.edges,
                initial_mapping=context.mapping,
                gamma=context.gamma,
                max_nodes=int(context.knob("max_nodes", 500_000)),
                prune_unhelpful_swaps=bool(
                    context.knob("prune_unhelpful_swaps", True)),
                use_heuristic=bool(context.knob("use_heuristic", True)),
                minimize_swaps=bool(context.knob("minimize_swaps", False)),
                strategy=str(context.knob("strategy", "astar")),
            )
        except ResourceExhaustedError as exc:
            fallback = context.knob("fallback", "greedy")
            if not fallback:
                raise
            if fallback not in FALLBACKS:
                raise SpecificationError(
                    f"unknown solver fallback {fallback!r}; expected "
                    f"one of {FALLBACKS} (or None to disable)") from exc
            self._degrade(context, exc, str(fallback))
            return True
        context.circuit = result.circuit
        context.mapping = result.initial_mapping
        context.extras["solver"] = {
            "depth": result.depth,
            **result.stats.as_dict(),
        }
        return True

    @staticmethod
    def _degrade(context: CompilationContext, exc: BaseException,
                 fallback: str) -> None:
        """Compile the instance with the greedy preset's passes inline.

        Runs inside this pass's ``run``, so the fallback's wall time
        lands in the ``solve`` pass record — the degraded path is
        still "what the optimal method cost".  The provenance record is
        written *before* the fallback runs: if greedy also fails, the
        failure report shows the job was already degraded.
        """
        from .greedy import GreedyPass
        from .placement import PlacementPass

        context.extras["degraded"] = {
            "method": "optimal",
            "fallback": fallback,
            "error_type": type(exc).__name__,
            "reason": str(exc),
        }
        # PlacementPass skips itself when the caller supplied a mapping,
        # matching the exact search's own treatment of initial_mapping.
        PlacementPass().run(context)
        GreedyPass().run(context)
