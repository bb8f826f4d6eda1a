"""Programmatic experiment sweeps (the library surface behind benchmarks/).

A *sweep* compiles a grid of (architecture, workload, compiler) points and
collects the paper's metrics, averaged over random seeds (Section 7.1).

Compilers are method names resolved through the single method registry
(:mod:`repro.pipeline.registry` — ``"hybrid"``, ``"greedy"``, ``"ata"``,
or any registered baseline), and workloads are the kinds
:func:`repro.problems.make_workload` builds.  Every cell runs through the
batch engine, which memoizes distance matrices and ATA patterns across
cells and, with ``workers > 1``, fans the sweep out over a process pool.
This module keeps no method table of its own: registering a new compiler
makes it sweepable by name immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class SweepPoint:
    """One measured cell of a sweep."""

    arch: str
    workload: str
    compiler: str
    depth: float
    cx: float
    swaps: float
    time_s: float
    n_seeds: int = 1


@dataclass
class SweepResult:
    points: List[SweepPoint] = field(default_factory=list)

    def get(self, arch: str, workload: str, compiler: str) -> SweepPoint:
        for point in self.points:
            if (point.arch == arch and point.workload == workload
                    and point.compiler == compiler):
                return point
        raise KeyError((arch, workload, compiler))


def run_sweep(
    arch_kinds: Sequence[str],
    workloads: Sequence[Tuple[str, int, float]],
    compilers: Dict[str, str],
    seeds: Sequence[int] = (0,),
    validate: bool = True,
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> SweepResult:
    """Compile every (arch, workload, compiler) cell, averaged over seeds.

    ``workloads`` entries are ``(kind, n, density)`` tuples; the workload
    label in the result is ``"{kind}-{n}-{density:g}"``.  ``compilers``
    maps a column label to a registry method name.

    Every cell runs through :func:`repro.batch.compile_many` — serially
    by default, over ``workers`` processes when ``workers > 1``.  A
    failed cell raises ``RuntimeError`` naming the job and the captured
    error.
    """
    from ..batch import BatchJob, compile_many

    jobs: List[BatchJob] = []
    cells: List[tuple] = []  # parallel to jobs: (arch, label, compiler name)
    for arch in arch_kinds:
        for kind, n, density in workloads:
            label = f"{kind}-{n}-{density:g}"
            for name, method in compilers.items():
                for seed in seeds:
                    jobs.append(BatchJob(
                        arch=arch, n_qubits=n, workload=kind,
                        density=density, seed=seed, method=method,
                        validate=validate))
                    cells.append((arch, label, name))
    executor = "process" if workers and workers > 1 else "serial"
    report = compile_many(jobs, workers=workers, timeout_s=timeout_s,
                          executor=executor)
    if report.failures:
        detail = "; ".join(f"{r.job.name}: {r.error_type}: {r.error}"
                           for r in report.failures[:5])
        raise RuntimeError(
            f"{len(report.failures)} sweep cell(s) failed — {detail}")

    totals: Dict[tuple, List[float]] = {}  # insertion order = cell order
    for cell, job_result in zip(cells, report.results):
        record = job_result.record
        acc = totals.setdefault(cell, [0.0, 0.0, 0.0, 0.0, 0])
        acc[0] += record["depth"]
        acc[1] += record["cx"]
        acc[2] += record["swaps"]
        acc[3] += record["wall_time_s"]
        acc[4] += 1
    return SweepResult([
        SweepPoint(arch=arch, workload=label, compiler=name,
                   depth=acc[0] / acc[4], cx=acc[1] / acc[4],
                   swaps=acc[2] / acc[4], time_s=acc[3] / acc[4],
                   n_seeds=int(acc[4]))
        for (arch, label, name), acc in totals.items()])
