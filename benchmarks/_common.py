"""Shared infrastructure for the per-table/per-figure benchmarks.

Every figure and table that averages random instances (Figs 17, 20-23,
Tables 1 and 2) builds its cells with :func:`sweep`, a thin call to
:func:`repro.analysis.run_sweep`: one batch-engine run per script, with
workloads built by :func:`repro.problems.make_workload`.

Scale control
-------------
By default every benchmark reproduces the *shape* of its paper table at
64-128 qubits (pure Python is ~100x slower than the authors' toolchain).
Set ``REPRO_FULL_SCALE=1`` to run the paper's full sizes (256 and 1024
qubits) — budget several hours.  ``REPRO_BATCH_WORKERS=N`` fans each
sweep out over N processes.

Each benchmark prints its table (visible with ``pytest -s``) and also
writes it under ``benchmarks/results/`` so the numbers survive the run.
EXPERIMENTS.md records a reference run.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, List, Sequence, Tuple

from repro.analysis import SweepPoint, SweepResult, format_table, run_sweep

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Seeds averaged per data point (the paper averages 10 random cases; two
#: keep the default run short while still smoothing variance).
SEEDS = (0, 1)

#: Benchmark column name -> registry method name: the one label->method
#: table of the figure scripts.
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


def sweep(arches: Sequence[str], workloads: Sequence[Tuple[str, int, float]],
          columns: Sequence[str],
          seeds: Sequence[int] = SEEDS) -> SweepResult:
    """Seed-averaged cells for benchmark ``columns`` (keys of
    :data:`COMPILER_METHODS`); a failed cell raises."""
    return run_sweep(arches, workloads,
                     {name: COMPILER_METHODS[name] for name in columns},
                     seeds=seeds, workers=batch_workers())


def cells(result: SweepResult, arch: str,
          workload: Tuple[str, int, float]) -> Dict[str, SweepPoint]:
    """One (arch, workload) row of a sweep, keyed by column."""
    kind, n, density = workload
    label = f"{kind}-{n}-{density:g}"
    return {point.compiler: point for point in result.points
            if point.arch == arch and point.workload == label}


def emit(name: str, table: str) -> None:
    """Print a benchmark table and persist it under benchmarks/results/."""
    print("\n" + table + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")


def table(name: str, title: str, headers: Sequence[str],
          rows: Sequence[Sequence[object]]) -> None:
    emit(name, format_table(headers, rows, title=title))
