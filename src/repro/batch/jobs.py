"""Picklable job specifications for the batch compilation engine.

A :class:`BatchJob` names everything a worker process needs to rebuild the
instance from scratch — architecture family and size, workload generator
and seed, compiler method and options — using only primitives, so the spec
crosses a ``ProcessPoolExecutor`` boundary cheaply.  The heavyweight
objects (coupling graph, problem graph, noise model) are constructed
inside the worker, where the process-local distance-matrix and pattern
caches amortize them across the jobs that worker handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..exceptions import SpecificationError
from ..pipeline.registry import available_methods, get_method
from ..problems import WORKLOADS, make_workload

if TYPE_CHECKING:  # runtime imports stay inside build(); see below
    from ..arch import CouplingGraph, NoiseModel
    from ..problems import ProblemGraph

#: Compiler methods the engine can name — everything in the single
#: method registry (:mod:`repro.pipeline.registry`): the three paper
#: methods plus every registered baseline.  The registry resolves names
#: lazily, so importing :mod:`repro.batch` stays light.
METHODS = available_methods()


def resolve_compiler(method: str) -> Callable:
    """``method`` name -> ``fn(coupling, problem, noise, gamma, **options)``.

    Thin alias for the method registry's
    :meth:`~repro.pipeline.registry.MethodSpec.compile`; raises
    ``ValueError`` for unknown names, listing the registered ones.
    """
    return get_method(method).compile


@dataclass(frozen=True)
class BatchJob:
    """One compilation instance, specified entirely by primitives."""

    arch: str
    n_qubits: int
    workload: str = "rand"
    density: float = 0.3
    seed: int = 0
    method: str = "hybrid"
    gamma: float = 0.0
    #: Program depth p: the compiled cost layer is assembled into this
    #: many alternating cost / reversed-cost layers (plus mixer walls).
    layers: int = 1
    #: ``"rx"`` interleaves mixer walls into the program; ``"none"``
    #: emits cost layers only (Trotterization schedules).
    mixer: str = "rx"
    use_noise: bool = False
    validate: bool = True
    #: Run the circuit linter (:mod:`repro.lint`) over the compiled
    #: result; the diagnostic summary lands in :attr:`JobResult.lint`
    #: and aggregates across the batch in
    #: :meth:`~repro.batch.engine.BatchReport.lint_totals`.
    lint: bool = False
    #: Extra keyword arguments forwarded to the compiler, as a sorted tuple
    #: of ``(name, value)`` pairs so the spec stays hashable and picklable.
    options: Tuple[Tuple[str, object], ...] = ()
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise SpecificationError(f"n_qubits must be >= 1 (got {self.n_qubits})")
        if not 0.0 <= self.density <= 1.0:
            raise SpecificationError(
                f"density must be in [0, 1] (got {self.density})")
        if self.workload not in WORKLOADS:
            raise SpecificationError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {WORKLOADS}")
        if self.layers < 1:
            raise SpecificationError(f"layers must be >= 1 (got {self.layers})")
        if self.mixer not in ("rx", "none"):
            raise SpecificationError(
                f"unknown mixer {self.mixer!r}; expected 'rx' or 'none'")
        resolve_compiler(self.method)  # fail fast on unknown methods

    @property
    def name(self) -> str:
        """Stable human-readable identity used in reports and tables."""
        if self.label:
            return self.label
        if self.workload == "clique":
            instance = f"clique-{self.n_qubits}"
        else:
            instance = (f"{self.workload}-{self.n_qubits}"
                        f"-{self.density:g}-s{self.seed}")
        method = self.method if self.layers == 1 \
            else f"{self.method}-p{self.layers}"
        return f"{self.arch}/{instance}/{method}"

    def with_options(self, **options: object) -> "BatchJob":
        """A copy with extra compiler keyword arguments merged in."""
        merged = dict(self.options)
        merged.update(options)
        return replace(self, options=tuple(sorted(merged.items())))

    def build(self) -> Tuple["CouplingGraph", "ProblemGraph",
                             Optional["NoiseModel"]]:
        """Materialize ``(coupling, problem, noise)`` inside the worker."""
        from ..arch import NoiseModel, architecture_for

        coupling = architecture_for(self.arch, self.n_qubits)
        problem = make_workload(self.workload, self.n_qubits, self.density,
                                self.seed)
        noise = NoiseModel(coupling, seed=self.seed) if self.use_noise \
            else None
        return coupling, problem, noise


@dataclass
class JobResult:
    """Per-job outcome: metrics on success, a structured error otherwise.

    A failing instance never kills the batch — it surfaces here with
    ``ok=False``, the exception type and message, and the wall time spent.
    """

    job: BatchJob
    ok: bool
    wall_time_s: float = 0.0
    record: Dict = field(default_factory=dict)
    cache: Dict = field(default_factory=dict)
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: ``repro.lint.render_json`` payload when the job ran with
    #: ``lint=True`` (present even when a later validation step failed
    #: the job, so the full diagnostic picture survives).
    lint: Optional[Dict] = None
    #: One record per *failed* attempt when the engine ran this job
    #: under a retry policy (:mod:`repro.resilience.retry`): ``attempt``
    #: (1-based), ``error_type``, ``error``, ``transient``, and — when a
    #: backoff-then-retry followed — ``retried: True`` + ``backoff_s``.
    #: Empty when the first attempt succeeded or no policy was set.
    attempts: List[Dict] = field(default_factory=list)

    @property
    def metrics(self) -> Dict:
        """Shortcut to the compiled metrics (empty when the job failed)."""
        return {k: v for k, v in self.record.items() if k != "extra"}

    @property
    def telemetry(self) -> Dict:
        """The compiler's ``CompiledResult.extra`` payload (may be empty)."""
        return self.record.get("extra", {})

    @property
    def retries(self) -> int:
        """Backoff-then-retry transitions this job actually took."""
        return sum(1 for record in self.attempts if record.get("retried"))

    @property
    def degraded(self) -> bool:
        """Did the compiler fall back to a cheaper method mid-job?"""
        return bool(self.telemetry.get("degraded"))

    def summary(self) -> str:
        if not self.ok:
            return (f"{self.job.name}: FAILED {self.error_type}: "
                    f"{self.error}")
        return (f"{self.job.name}: depth={self.record.get('depth')} "
                f"cx={self.record.get('cx')} "
                f"time={self.wall_time_s:.3f}s")

    def to_json(self) -> Dict:
        """The outcome as plain data (everything except the job spec).

        This is the payload the result store persists
        (:mod:`repro.serve.store`); :meth:`from_json` rebuilds an equal
        :class:`JobResult` given the same :class:`BatchJob`.
        """
        return {
            "ok": self.ok,
            "wall_time_s": self.wall_time_s,
            "record": self.record,
            "cache": self.cache,
            "error": self.error,
            "error_type": self.error_type,
            "lint": self.lint,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json(cls, job: BatchJob, payload: Dict) -> "JobResult":
        """Rebuild a result stored by :meth:`to_json` for ``job``."""
        return cls(
            job=job,
            ok=bool(payload.get("ok")),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            record=payload.get("record") or {},
            cache=payload.get("cache") or {},
            error=payload.get("error"),
            error_type=payload.get("error_type"),
            lint=payload.get("lint"),
            attempts=payload.get("attempts") or [],
        )
