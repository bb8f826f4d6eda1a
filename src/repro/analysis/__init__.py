"""Metrics and reporting used by the benchmark harness."""

from .metrics import geometric_mean, normalize, reduction, result_metrics
from .report import format_table
from .sweeps import SweepPoint, SweepResult, run_sweep

__all__ = ["result_metrics", "reduction", "normalize", "geometric_mean",
           "format_table", "run_sweep", "SweepResult", "SweepPoint"]
