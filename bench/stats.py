"""Summary statistics the benchmark reports.

Timings are summarised by their median.  A tail percentile is reported
only when at least :data:`MIN_TAIL_SAMPLES` samples lie beyond it; with
fewer, the "percentile" is just the few largest samples.  Output sizes
are averaged with the geometric mean, as ratios across instances of very
different size should be.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Optional, Sequence

#: Samples that must lie strictly beyond a percentile for it to be reported.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile q must be in (0, 100), got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_TAIL_SAMPLES:
        return None
    return float(ordered[rank - 1])


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = []
    for value in values:
        if value <= 0:
            raise ValueError(f"geomean needs positive values, got {value}")
        logs.append(math.log(value))
    if not logs:
        raise ValueError("geomean of an empty sample")
    return math.exp(math.fsum(logs) / len(logs))


def best_baseline_ratio(rows: Sequence[Mapping[str, float]], subject: str,
                        baselines: Sequence[str]) -> float:
    """Geomean over rows of ``row[subject]`` divided by the smallest
    ``row[b]`` among ``baselines``: below 1 means the subject beats every
    baseline on a typical row."""
    return geomean(row[subject] / min(row[b] for b in baselines)
                   for row in rows)
