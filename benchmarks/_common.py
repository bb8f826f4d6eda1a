"""Shared infrastructure for the per-table/per-figure benchmarks.

Scale control
-------------
By default every benchmark reproduces the *shape* of its paper table at
64-128 qubits (pure Python is ~100x slower than the authors' toolchain).
Set ``REPRO_FULL_SCALE=1`` to run the paper's full sizes (256 and 1024
qubits) — budget several hours.

Each benchmark prints its table (visible with ``pytest -s``) and also
writes it under ``benchmarks/results/`` so the numbers survive the run.
EXPERIMENTS.md records a reference run.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, List, Sequence

from repro.analysis import format_table
from repro.arch import architecture_for
from repro.batch import BatchJob, compile_many, resolve_compiler
from repro.problems import (ProblemGraph, random_problem_graph,
                            regular_for_density)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Seeds averaged per data point (the paper averages 10 random cases; two
#: keep the default run short while still smoothing variance).
SEEDS = (0, 1)

#: Benchmark column name -> batch-engine compiler method.  All compilation
#: now routes through :mod:`repro.batch`, so every point benefits from the
#: process-local distance-matrix/pattern caches and, with
#: ``REPRO_BATCH_WORKERS=N``, from process-pool fan-out.
COMPILER_METHODS: Dict[str, str] = {
    "ours": "hybrid",
    "greedy": "greedy",
    "solver": "ata",
    "qaim": "qaim",
    "paulihedral": "paulihedral",
    "2qan": "2qan",
    "olsq": "olsq",
    "satmap": "satmap",
}

def full_scale() -> bool:
    return os.environ.get("REPRO_FULL_SCALE", "") not in ("", "0")


def batch_workers() -> int:
    """Worker processes for averaged points (``REPRO_BATCH_WORKERS``)."""
    try:
        return max(1, int(os.environ.get("REPRO_BATCH_WORKERS", "1")))
    except ValueError:
        return 1


def benchmark_sizes() -> List[int]:
    return [64, 256, 1024] if full_scale() else [64, 128]


def problem_for(kind: str, n: int, density: float, seed: int) -> ProblemGraph:
    if kind == "rand":
        return random_problem_graph(n, density, seed=seed)
    if kind == "reg":
        return regular_for_density(n, density, seed=seed)
    raise ValueError(f"unknown problem kind {kind!r}")


def run_point(arch_kind: str, problem: ProblemGraph,
              compilers: Sequence[str],
              validate: bool = True) -> Dict[str, Dict[str, float]]:
    """Compile one concrete problem with several compilers (in-process;
    used by benchmarks that build non-random problem graphs)."""
    coupling = architecture_for(arch_kind, problem.n_vertices)
    out: Dict[str, Dict[str, float]] = {}
    for name in compilers:
        result = resolve_compiler(COMPILER_METHODS[name])(coupling, problem)
        if validate:
            result.validate(coupling, problem)
        out[name] = {
            "depth": result.depth(),
            "cx": result.gate_count,
            "time_s": result.wall_time_s,
        }
    return out


def averaged_point(arch_kind: str, kind: str, n: int, density: float,
                   compilers: Sequence[str],
                   seeds: Sequence[int] = SEEDS) -> Dict[str, Dict[str, float]]:
    """Average metrics over several random instances (paper methodology).

    Runs through the batch engine: serial by default, fanned out over
    ``REPRO_BATCH_WORKERS`` processes when set.  A failed instance raises
    with the captured per-job error.
    """
    jobs = [
        BatchJob(arch=arch_kind, n_qubits=n, workload=kind, density=density,
                 seed=seed, method=COMPILER_METHODS[name])
        for name in compilers for seed in seeds]
    workers = batch_workers()
    report = compile_many(
        jobs, workers=workers,
        executor="process" if workers > 1 else "serial")
    if report.failures:
        failed = report.failures[0]
        raise RuntimeError(f"benchmark point failed — {failed.summary()}")
    totals: Dict[str, Dict[str, float]] = {}
    for name, result in zip(
            [n_ for n_ in compilers for _ in seeds], report.results):
        bucket = totals.setdefault(
            name, {"depth": 0.0, "cx": 0.0, "time_s": 0.0})
        bucket["depth"] += result.record["depth"]
        bucket["cx"] += result.record["cx"]
        bucket["time_s"] += result.record["wall_time_s"]
    for metrics in totals.values():
        for key in metrics:
            metrics[key] /= len(seeds)
    return totals


def emit(name: str, table: str) -> None:
    """Print a benchmark table and persist it under benchmarks/results/."""
    print("\n" + table + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")


def table(name: str, title: str, headers: Sequence[str],
          rows: Sequence[Sequence[object]]) -> None:
    emit(name, format_table(headers, rows, title=title))
