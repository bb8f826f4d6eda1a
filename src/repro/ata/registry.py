"""Dispatch from a coupling graph to its structured ATA pattern.

``get_pattern`` memoizes the constructed pattern process-wide, keyed by
``(kind, n_qubits, frozen(metadata))`` — patterns are stateless schedules
over *physical positions*, so two architecturally identical devices share
one instance, and with it the compact cycle list the executor's walk
caches on the instance (:func:`repro.ata.executor.compiled_cycles`), so
the schedule is generated once per process.  The batch engine leans on
this cache; counters are exposed through
:func:`repro._telemetry.cache_info`.
"""

from __future__ import annotations

import threading
from typing import Dict

from .._telemetry import CacheCounter, register_cache
from ..arch.coupling import CouplingGraph
from ..exceptions import ArchitectureError
from .base import AtaPattern
from .cube_pattern import CubePattern
from .grid_pattern import OptimizedGridPattern
from .heavyhex_pattern import HeavyHexPattern
from .line_pattern import LinePattern
from .paired_units import HexagonPattern, SycamorePattern

_PATTERN_CACHE: Dict[tuple, AtaPattern] = {}
_PATTERN_CACHE_CAP = 128
#: Held to evict, insert or clear: ``thread``-executor jobs share the cache.
_PATTERN_LOCK = threading.Lock()


def _clear_patterns() -> None:
    with _PATTERN_LOCK:
        _PATTERN_CACHE.clear()


_PATTERN_COUNTER = register_cache(
    "pattern", CacheCounter("pattern"),
    lambda: len(_PATTERN_CACHE), _clear_patterns)


def _freeze(value):
    """Recursively convert architecture metadata into a hashable key part."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze(v) for v in value)
    return value


def pattern_cache_key(coupling: CouplingGraph) -> tuple:
    """The memoization key: structural family, size, and metadata."""
    return (coupling.kind, coupling.n_qubits, _freeze(coupling.metadata))


def pattern_cache_info() -> Dict[str, int]:
    """Hits/misses/size of the process-local pattern cache."""
    info = _PATTERN_COUNTER.snapshot()
    info["size"] = len(_PATTERN_CACHE)
    return info


def clear_pattern_cache() -> None:
    """Drop every memoized pattern and zero the counters."""
    _clear_patterns()
    _PATTERN_COUNTER.reset()


def _build_pattern(coupling: CouplingGraph) -> AtaPattern:
    kind = coupling.kind
    if kind == "line":
        return LinePattern(coupling.metadata["path"])
    if kind == "grid":
        return OptimizedGridPattern(coupling.metadata["units"])
    if kind == "sycamore":
        return SycamorePattern.for_architecture(coupling)
    if kind == "hexagon":
        return HexagonPattern.for_architecture(coupling)
    if kind == "heavyhex":
        return HeavyHexPattern.for_architecture(coupling)
    if kind == "cube":
        return CubePattern.for_architecture(coupling)
    path = coupling.metadata.get("path")
    if path and len(path) == coupling.n_qubits:
        return LinePattern(path)  # snake fallback for any traversable device
    raise ArchitectureError(
        f"no structured ATA pattern for architecture kind {kind!r}")


def get_pattern(coupling: CouplingGraph, cached: bool = True) -> AtaPattern:
    """The architecture-appropriate full-clique ATA pattern.

    With ``cached=True`` (default) the pattern instance is memoized by
    :func:`pattern_cache_key`; pass ``cached=False`` for a fresh instance
    with no cycles cached on it.
    """
    if not cached:
        return _build_pattern(coupling)
    key = pattern_cache_key(coupling)
    pattern = _PATTERN_CACHE.get(key)
    if pattern is None:
        _PATTERN_COUNTER.miss()
        pattern = _build_pattern(coupling)
        with _PATTERN_LOCK:
            if key not in _PATTERN_CACHE:
                if len(_PATTERN_CACHE) >= _PATTERN_CACHE_CAP:
                    _PATTERN_CACHE.pop(next(iter(_PATTERN_CACHE)))
                _PATTERN_CACHE[key] = pattern
    else:
        _PATTERN_COUNTER.hit()
    return pattern


def snake_pattern(coupling: CouplingGraph) -> LinePattern:
    """The snake-line ablation baseline: ignore structure, run the line
    pattern over a full Hamiltonian path (grid/line only)."""
    path = coupling.metadata.get("path")
    if not path or len(path) != coupling.n_qubits:
        raise ArchitectureError(
            f"{coupling.name} has no full Hamiltonian path for a snake")
    return LinePattern(path)
