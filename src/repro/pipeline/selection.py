"""The compiled-circuit selector — Section 6.4, Theorem 6.1.

Each candidate is a greedy prefix (cut at a snapshot where the mapping
changed) completed by the ATA suffix.  Candidates are scored by

    F = alpha * depth / greedy_depth + (1 - alpha) * quality_term

where ``quality_term`` is ``1 - ESP^(1/gate_count)`` (one minus the
geometric-mean gate success rate) when a noise model is available, and the
gate-count ratio against the pure-greedy circuit otherwise.  Smaller is
better.  The pool holds the pure ATA circuit (candidate 0) and, when the
greedy engine finished, the pure greedy circuit, so the selected circuit
is never worse (in F) than either — Theorem 6.1.
"""

from __future__ import annotations

import numbers
from typing import List, Optional

from ..exceptions import SpecificationError
from .base import Pass
from .context import Candidate, CompilationContext


def check_alpha(alpha: object) -> None:
    """Raise :class:`SpecificationError` unless ``alpha`` is a real
    number in [0, 1]; NaN and numeric strings are rejected too."""
    if not (isinstance(alpha, numbers.Real) and 0.0 <= alpha <= 1.0):
        raise SpecificationError(
            f"alpha must be a real number in [0, 1] (got {alpha!r}); it "
            "weighs the depth term of the selector cost F against the "
            "gate-count/ESP term")


def cost_f(
    depth: int,
    gate_count: int,
    greedy_depth: int,
    greedy_gates: int,
    esp: Optional[float],
    alpha: float = 0.5,
) -> float:
    """The selector cost F (smaller is better)."""
    check_alpha(alpha)
    depth_term = depth / max(greedy_depth, 1)
    if esp is not None and gate_count > 0:
        quality = 1.0 - esp ** (1.0 / gate_count)
    else:
        quality = gate_count / max(greedy_gates, 1)
    return alpha * depth_term + (1.0 - alpha) * quality


def score_candidates(
    candidates: List[Candidate],
    greedy_depth: int,
    greedy_gates: int,
    alpha: float = 0.5,
) -> Candidate:
    """Attach scores and return the best candidate (stable on ties)."""
    if not candidates:
        raise SpecificationError("no candidates to select from")
    for candidate in candidates:
        candidate.score = cost_f(candidate.depth, candidate.gate_count,
                                 greedy_depth, greedy_gates,
                                 candidate.esp, alpha=alpha)
    return min(candidates, key=lambda c: c.score)


class SelectionPass(Pass):
    """Score the candidate pool with cost F and keep the winner.

    Reads ``candidates`` (candidate 0 must be the pure-ATA ``cc0``),
    ``trace`` and the ``alpha`` knob; writes ``context.selected`` /
    ``context.circuit`` and the ``selected`` / ``scores``
    extras.  Depth and gate-count terms are normalised by the
    finished greedy circuit when the engine completed, by ``cc0``
    otherwise (the greedy prefix alone is not a complete program).
    """

    name = "selection"

    def run(self, context: CompilationContext):
        if not context.candidates:
            raise SpecificationError(
                "SelectionPass needs a non-empty candidate pool; run "
                "PredictionPass/CandidatePass first")
        context.require("trace")
        trace = context.trace
        cc0 = context.candidates[0]
        if trace.remaining:
            norm_depth = cc0.depth
            norm_gates = cc0.gate_count
        else:
            # The finished greedy circuit is candidate "greedy"; reuse
            # its already-measured metrics rather than re-walking the
            # circuit (identical values — same circuit, same measures).
            greedy = next((c for c in context.candidates
                           if c.label == "greedy"), None)
            if greedy is not None:
                norm_depth = greedy.depth
                norm_gates = greedy.gate_count
            else:
                norm_depth = trace.circuit.depth()
                norm_gates = trace.circuit.cx_count(unify=True)
        best = score_candidates(context.candidates,
                                greedy_depth=norm_depth,
                                greedy_gates=norm_gates,
                                alpha=context.knob("alpha", 0.5))
        context.selected = best
        context.circuit = best.realized()
        context.extras["selected"] = best.label
        context.extras["scores"] = {c.label: c.score
                                    for c in context.candidates}
        return True
