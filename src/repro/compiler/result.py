"""Compilation result container shared by the compiler and all baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .._telemetry import sum_cache_deltas
from ..arch.coupling import CouplingGraph
from ..arch.noise import NoiseModel
from ..ir.circuit import Circuit
from ..ir.mapping import Mapping
from ..ir.program import Program
from ..ir.validate import (ValidationReport, blocking_lint,
                           validate_lint_report)
from ..problems.graphs import ProblemGraph


@dataclass
class CompiledResult:
    """A compiled circuit plus everything needed to check and score it.

    ``circuit`` is always the single compiled cost layer — the unit the
    golden fixtures pin byte-for-byte.  When the pipeline assembles a
    multi-layer schedule (``layers`` knob), the full p-layer artifact
    lives in ``program`` and its plain-data summary in
    ``extra["program"]``.
    """

    circuit: Circuit
    initial_mapping: Mapping
    method: str
    wall_time_s: float = 0.0
    extra: dict = field(default_factory=dict)
    program: Optional[Program] = None

    def depth(self) -> int:
        return self.circuit.depth()

    def cx_count(self, unify: bool = True) -> int:
        return self.circuit.cx_count(unify=unify)

    @property
    def swap_count(self) -> int:
        return self.circuit.swap_count

    @property
    def gate_count(self) -> int:
        """Two-qubit CX count with gate unification (the paper's metric)."""
        return self.cx_count(unify=True)

    def esp(self, noise: NoiseModel) -> float:
        return noise.esp(self.circuit)

    # -- telemetry ---------------------------------------------------------

    @property
    def cache_stats(self) -> dict:
        """Hit/miss deltas of the process-local caches during this
        compilation, keyed by cache name (``distance_matrix``, ``pattern``,
        ``pattern_cycles``): the sum of the ``extra["passes"]`` records'
        ``cache``."""
        return sum_cache_deltas(record["cache"]
                                for record in self.extra.get("passes", []))

    def to_record(self) -> dict:
        """Plain-data summary (metrics + telemetry, no circuit) safe to
        pickle across processes or dump as JSON — the batch engine's
        per-job payload."""
        return {
            "method": self.method,
            "depth": self.depth(),
            "cx": self.gate_count,
            "swaps": self.swap_count,
            "ops": len(self.circuit),
            "wall_time_s": self.wall_time_s,
            "extra": self.extra,
        }

    def validate(self, coupling: CouplingGraph,
                 problem: ProblemGraph) -> ValidationReport:
        """Lint's blocking rules over the scan :func:`repro.lint.lint_result`
        makes: the cost layer, or each layer of a multi-layer program."""
        from ..lint.engine import build_contexts

        return validate_lint_report(blocking_lint(build_contexts(
            self.circuit, coupling.edges, self.initial_mapping,
            problem.edges, program=self.program)))

    def summary(self) -> str:
        return (f"{self.method}: depth={self.depth()} "
                f"cx={self.gate_count} swaps={self.swap_count} "
                f"time={self.wall_time_s:.3f}s")
