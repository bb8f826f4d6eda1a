"""Compiled-circuit selector — Section 6.4.

Each candidate is a greedy prefix (cut at a snapshot where the mapping
changed) completed by the ATA suffix.  Candidates are scored by

    F = alpha * depth / greedy_depth + (1 - alpha) * quality_term

where ``quality_term`` is ``1 - ESP^(1/gate_count)`` (one minus the
geometric-mean gate success rate) when a noise model is available, and the
gate-count ratio against the pure-greedy circuit otherwise.  Smaller is
better.  Candidate 0 is the pure ATA circuit and the last candidate is the
pure greedy circuit, so the selected circuit is never worse (in F) than
either — Theorem 6.1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

from ..arch.noise import NoiseModel
from ..exceptions import SpecificationError
from ..ir.circuit import Circuit


@dataclass
class Candidate:
    """One scored prefix+suffix combination.

    ``circuit`` may be ``None`` for a lazily-scored candidate whose
    metrics were streamed by :mod:`repro.ata.simulate`; ``materialize``
    then rebuilds the real circuit on demand.  Only the selection
    winner is ever materialised — the losing candidates' circuits are
    never constructed at all.
    """

    label: str
    circuit: Optional[Circuit]
    depth: int
    gate_count: int
    esp: Optional[float]
    score: float = 0.0
    materialize: Optional[Callable[[], Circuit]] = None

    def realized(self) -> Circuit:
        """The candidate's circuit, materialising it if still lazy."""
        if self.circuit is None:
            if self.materialize is None:
                raise ValueError(
                    f"candidate {self.label!r} has no circuit and no "
                    "materializer")
            self.circuit = self.materialize()
        return self.circuit


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
    candidates: list,
    greedy_depth: int,
    greedy_gates: int,
    alpha: float = 0.5,
) -> "Candidate":
    """Attach scores and return the best candidate (stable on ties)."""
    if not candidates:
        raise SpecificationError("no candidates to select from")
    for candidate in candidates:
        candidate.score = cost_f(candidate.depth, candidate.gate_count,
                                 greedy_depth, greedy_gates,
                                 candidate.esp, alpha=alpha)
    return min(candidates, key=lambda c: c.score)


def make_candidate(label: str, circuit: Circuit,
                   noise: Optional[NoiseModel]) -> Candidate:
    """Measure a finished candidate circuit."""
    return Candidate(
        label=label,
        circuit=circuit,
        depth=circuit.depth(),
        gate_count=circuit.cx_count(unify=True),
        esp=noise.esp(circuit) if noise is not None else None,
    )
