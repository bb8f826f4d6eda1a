"""The typed compilation state threaded through every pass.

A :class:`CompilationContext` is the single mutable object a
:class:`~repro.pipeline.base.Pipeline` hands from pass to pass: the
immutable instance description (coupling graph, problem graph, noise
model, gamma), the work-in-progress artefacts (mapping, pattern, circuit,
greedy trace, candidate pool), the method knobs, and the ``extras``
dictionary that becomes ``CompiledResult.extra`` verbatim.

Passes communicate exclusively through the context — no pass holds
per-compilation state of its own — so a pipeline preset is just an
ordered list of stateless pass objects and the same pass instances can be
reused across compilations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..arch.coupling import CouplingGraph
from ..exceptions import SpecificationError
from ..arch.noise import NoiseModel
from ..ata.base import AtaPattern
from ..compiler.greedy import GreedyTrace
from ..compiler.result import CompiledResult
from ..ir.circuit import Circuit
from ..ir.mapping import Mapping
from ..ir.program import Program
from ..problems.graphs import ProblemGraph


@dataclass
class Candidate:
    """One scored prefix+suffix combination of the hybrid's pool.

    ``circuit`` may be ``None`` for a lazily-scored candidate whose
    metrics were streamed by :mod:`repro.ata.simulate`; ``materialize``
    then builds the circuit on demand, by the same schedule walk fed to
    a circuit instead of a tracker.  Only the selection winner is ever
    materialised — the losing candidates' circuits are never
    constructed at all.
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
                raise SpecificationError(
                    f"candidate {self.label!r} has no circuit and no "
                    "materializer")
            self.circuit = self.materialize()
        return self.circuit


@dataclass
class CompilationContext:
    """Everything a pass may read or write during one compilation.

    Construction-time fields describe the instance; the remaining fields
    start empty and are filled in by passes (see each pass's docstring
    for its reads/writes contract).
    """

    #: The target architecture (read-only for passes).
    coupling: CouplingGraph
    #: The permutable-operator program being compiled (read-only).
    problem: ProblemGraph
    #: Method label stamped on the final :class:`CompiledResult`.
    method: str = "hybrid"
    #: Optional noise calibration used by placement, SWAP scoring and ESP.
    noise: Optional[NoiseModel] = None
    #: The ZZ rotation angle applied to every problem gate.
    gamma: float = 0.0
    #: The *initial* logical->physical mapping.  ``PlacementPass`` fills
    #: this in when ``None``; it is never mutated afterwards (engines copy
    #: it), so it is always safe to validate the final circuit against.
    mapping: Optional[Mapping] = None
    #: The structured ATA pattern (``PatternPass``).
    pattern: Optional[AtaPattern] = None
    #: The circuit-in-progress; whichever pass runs last must leave the
    #: finished circuit here for :meth:`to_result`.
    circuit: Optional[Circuit] = None
    #: Method-specific tuning knobs (``alpha``, ``max_predictions``, ...).
    knobs: Dict[str, Any] = field(default_factory=dict)
    #: Telemetry and per-method metadata; becomes ``CompiledResult.extra``.
    extras: Dict[str, Any] = field(default_factory=dict)
    #: Output of ``GreedyPass`` (circuit, snapshots, remaining edges).
    trace: Optional[GreedyTrace] = None
    #: The scored candidate pool (``PredictionPass`` / ``CandidatePass``).
    candidates: List[Candidate] = field(default_factory=list)
    #: The winning candidate chosen by ``SelectionPass``.
    selected: Optional[Candidate] = None
    #: Set by ``BaselinePass``: the wrapped compiler's own result object,
    #: returned (with pipeline telemetry merged in) instead of building a
    #: fresh one from ``circuit``/``mapping``.
    baseline_result: Optional[CompiledResult] = None
    #: The assembled p-layer program (``AssemblyPass``); attached to the
    #: final :class:`CompiledResult` by :meth:`to_result`.
    program: Optional[Program] = None

    def knob(self, name: str, default: Any = None) -> Any:
        """A tuning knob with a default (passes never KeyError on knobs)."""
        return self.knobs.get(name, default)

    def require(self, *fields: str) -> None:
        """Assert that earlier passes produced ``fields`` (clear errors
        for mis-assembled custom pipelines)."""
        for name in fields:
            if getattr(self, name) is None:
                raise SpecificationError(
                    f"pipeline pass needs context.{name} but no earlier "
                    f"pass produced it; check the pass order")

    def to_result(self, wall_time_s: float) -> CompiledResult:
        """Package the finished context as a :class:`CompiledResult`."""
        if self.baseline_result is not None:
            result = self.baseline_result
            result.extra.update(self.extras)
            result.program = self.program
            return result
        self.require("circuit", "mapping")
        result = CompiledResult(self.circuit, self.mapping, self.method,
                                wall_time_s, program=self.program)
        result.extra.update(self.extras)
        return result
