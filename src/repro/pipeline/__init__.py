"""Composable pass-pipeline compiler core (the Fig 18 workflow as data).

The paper's staged framework — placement, pattern selection, greedy
processing, ATA-suffix prediction, cost-F selection — is expressed as
:class:`Pass` objects run by a :class:`Pipeline` over one mutable
:class:`CompilationContext`.  The pipeline owns per-pass timing,
cache-delta telemetry and the ``on_pass_end`` observability hook; the
passes own the algorithms.

* :mod:`~repro.pipeline.presets` — the declarative ``hybrid`` /
  ``greedy`` / ``ata`` pipelines behind :func:`repro.compile_qaoa`.
* :mod:`~repro.pipeline.registry` — the single method registry through
  which ``compile_qaoa``, :mod:`repro.batch`, ``analysis.run_sweep`` and
  the CLI resolve every method name, baselines included.

See ``docs/compiler.md`` for the pass table and an extension example.
"""

from .assembly import AssemblyPass, assemble_program
from .base import Pass, PassObserver, Pipeline
from .baseline import BaselinePass
from .context import CompilationContext
from .greedy import GreedyPass
from .placement import PatternPass, PlacementPass
from .prediction import CandidatePass, PredictionPass, sample_snapshots
from .presets import PAPER_KNOBS, PRESETS, build_context, build_pipeline
from .registry import (MethodSpec, available_methods, get_method,
                       method_table, register_method)
from .selection import SelectionPass

__all__ = [
    "CompilationContext",
    "Pass",
    "PassObserver",
    "Pipeline",
    "PlacementPass",
    "PatternPass",
    "GreedyPass",
    "PredictionPass",
    "CandidatePass",
    "SelectionPass",
    "AssemblyPass",
    "assemble_program",
    "BaselinePass",
    "sample_snapshots",
    "PAPER_KNOBS",
    "PRESETS",
    "build_context",
    "build_pipeline",
    "MethodSpec",
    "register_method",
    "get_method",
    "available_methods",
    "method_table",
]
