"""Result metrics and cross-compiler comparison helpers."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..arch.noise import NoiseModel
from ..compiler.result import CompiledResult
from ..ir.tracker import scan_circuit


def result_metrics(result: CompiledResult,
                   noise: Optional[NoiseModel] = None) -> Dict[str, float]:
    """The metric row the paper reports for one compiled circuit.

    Depth, fused CX count, SWAP count and, with ``noise``, ESP come from
    one :func:`~repro.ir.tracker.scan_circuit` pass; they equal
    ``result.depth()``, ``result.gate_count``, ``result.swap_count`` and
    ``result.esp(noise)``.
    """
    tracker = scan_circuit(result.circuit, noise)
    depth, cx, esp = tracker.finalize()
    metrics: Dict[str, float] = {
        "depth": depth,
        "cx": cx,
        "swaps": tracker.n_swap,
        "time_s": result.wall_time_s,
    }
    if esp is not None:
        metrics["esp"] = esp
    return metrics


def reduction(ours: float, baseline: float) -> float:
    """Relative reduction "ours vs baseline" (positive = ours smaller).

    This is the number behind claims like "72% depth reduction".
    """
    if baseline == 0:
        return 0.0
    return 1.0 - ours / baseline


def normalize(values: Dict[str, float],
              reference: str) -> Dict[str, float]:
    """Normalise a metric dict to one entry (Fig 17 style bars)."""
    ref = values[reference]
    if ref == 0:
        raise ValueError(f"reference {reference!r} metric is zero")
    return {name: value / ref for name, value in values.items()}


def geometric_mean(values: Iterable[float]) -> float:
    import math

    values = list(values)
    if not values:
        raise ValueError("no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
