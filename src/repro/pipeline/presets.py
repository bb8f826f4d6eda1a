"""Declarative pipeline presets for the paper's three methods.

Each preset is a tuple of pass factories — the Fig 18 workflow spelled
out as data rather than control flow:

* ``hybrid`` — placement, pattern, pure-ATA prediction (``cc0``), greedy
  with snapshots, per-snapshot candidates, cost-F selection;
* ``greedy`` — placement, greedy to completion;
* ``ata`` — placement, pattern, rigid pattern execution.

:func:`build_context` validates the caller's knobs against
:data:`PAPER_KNOBS` (an unknown keyword raises ``TypeError``, matching
the old explicit-signature behaviour) and :func:`build_pipeline` turns a
preset name into a runnable :class:`~repro.pipeline.base.Pipeline`.
No preset checks its own output: a compiled result is checked afterwards
by ``CompiledResult.validate`` or :func:`repro.lint.lint_result`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..compiler.mapping import check_initial_mapping
from ..compiler.swap_insertion import MATCHING_MODES
from ..exceptions import SpecificationError, UnknownKnobError
from .assembly import AssemblyPass
from .base import Pass, PassObserver, Pipeline
from .context import CompilationContext
from .greedy import GreedyPass
from .placement import PatternPass, PlacementPass
from .prediction import CandidatePass, PredictionPass
from .registry import PAPER_KNOBS
from .selection import SelectionPass, check_alpha

#: Pass factories per method, in execution order.  Every preset ends
#: with ``AssemblyPass``, which turns the compiled cost layer into the
#: p-layer :class:`~repro.ir.program.Program` (``layers=1`` reuses the
#: compiled circuit object, so single-layer output is untouched).
PRESETS: Dict[str, Tuple[Callable[[], Pass], ...]] = {
    "hybrid": (PlacementPass, PatternPass, PredictionPass,
               lambda: GreedyPass(as_result=False),
               CandidatePass, SelectionPass, AssemblyPass),
    "greedy": (PlacementPass, GreedyPass, AssemblyPass),
    "ata": (PlacementPass, PatternPass,
            lambda: PredictionPass(as_result=True), AssemblyPass),
}


def build_context(
    method: str,
    coupling,
    problem,
    noise=None,
    gamma: float = 0.0,
    options: Optional[Dict[str, object]] = None,
) -> CompilationContext:
    """A validated context for one paper-method compilation."""
    options = dict(options or {})
    unknown = sorted(set(options) - set(PAPER_KNOBS))
    if unknown:
        raise UnknownKnobError(
            f"compile_qaoa() got unexpected keyword argument(s) "
            f"{', '.join(map(repr, unknown))} for method {method!r}")
    knobs = {**PAPER_KNOBS, **options}
    max_predictions = knobs["max_predictions"]
    if not _is_int(max_predictions) or max_predictions < 1:
        raise SpecificationError(
            f"max_predictions must be an int >= 1 (got "
            f"{max_predictions!r}); 1 keeps only the pure-ATA "
            "prediction, the default 24 samples evenly")
    cap = knobs["greedy_cycle_cap"]
    if cap is not None and (not _is_int(cap) or cap < 0):
        raise SpecificationError(
            f"greedy_cycle_cap must be None or an int >= 0 (got "
            f"{cap!r}); it bounds the greedy engine's cycles")
    check_alpha(knobs["alpha"])
    if knobs["matching"] not in MATCHING_MODES:
        raise SpecificationError(
            f"unknown matching {knobs['matching']!r}; expected one of "
            f"{MATCHING_MODES}")
    mapping = knobs.pop("initial_mapping")
    if mapping is not None:
        check_initial_mapping(coupling, problem, mapping)
    return CompilationContext(
        coupling=coupling, problem=problem, method=method, noise=noise,
        gamma=gamma, mapping=mapping,
        pattern=knobs.pop("pattern"), knobs=knobs)


def _is_int(value: object) -> bool:
    """An ``int`` that is not a ``bool`` (``True`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def build_pipeline(
    method: str,
    on_pass_end: Optional[PassObserver] = None,
) -> Pipeline:
    """Instantiate the preset pipeline for ``method``."""
    if method not in PRESETS:
        raise SpecificationError(
            f"no pipeline preset for method {method!r}; "
            f"expected one of {tuple(PRESETS)}")
    return Pipeline([factory() for factory in PRESETS[method]],
                    name=method, on_pass_end=on_pass_end)
