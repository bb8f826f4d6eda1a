"""The full compiler workflow — Section 6.1 / Fig 18.

``compile_qaoa`` is the package's headline entry point.  It is a thin
facade over the pass pipeline in :mod:`repro.pipeline`: the method name
is resolved through the single method registry
(:mod:`repro.pipeline.registry`) to a preset pipeline — or to a wrapped
baseline — and the context is threaded through the passes.  Methods:

* ``"hybrid"`` (default) — greedy processing with snapshots at every
  mapping change, ATA-suffix candidates spliced at sampled snapshots, and
  the cost-F selector (Theorem 6.1: never worse than pure ATA).
* ``"greedy"`` — the pure greedy engine (the "greedy" bars of Fig 17).
* ``"ata"`` — rigid pattern following from the initial mapping (the
  "solver"-guided bars of Fig 17).
* any registered baseline name (``"sabre"``, ``"qaim"``, ``"2qan"``,
  ``"paulihedral"``, ``"olsq"``, ``"satmap"``) — the Section 7.1
  reference compilers, run through the same telemetry envelope.

The paper predicts after *every* mapping change; evaluating a full ATA
suffix per snapshot is O(n) each, so we score an evenly-spaced sample
(``max_predictions``, default 24, always including the pure-ATA and
pure-greedy endpoints).  This preserves the guarantee and, in practice,
the paper's "better than the best of the two" behaviour.

Every result carries structured telemetry in ``CompiledResult.extra``:
per-pass records (``extra["passes"]``: each pass's wall-clock seconds and
the hit/miss deltas of the process-local distance-matrix/pattern caches
while it ran) and candidate-pool statistics.  The batch engine
(:mod:`repro.batch`) aggregates these across jobs; see ``docs/batch.md`` for the
field-by-field reference and ``docs/compiler.md`` for the pass table.
"""

from __future__ import annotations

from typing import Optional

from ..arch.coupling import CouplingGraph
from ..arch.noise import NoiseModel
from ..problems.graphs import ProblemGraph
from .result import CompiledResult


def compile_qaoa(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    method: str = "hybrid",
    noise: Optional[NoiseModel] = None,
    gamma: float = 0.0,
    **options,
) -> CompiledResult:
    """Compile a program with permutable two-qubit operators.

    ``method`` is resolved through the single method registry
    (:func:`repro.pipeline.registry.get_method`); an unknown name raises
    ``ValueError`` listing every registered method.  ``options`` are the
    method's knobs — for the paper methods: ``initial_mapping``,
    ``placement`` (``"quadratic"`` default, ``"degree"``, ``"trivial"``,
    ``"noise"``), ``alpha``, ``max_predictions``, ``matching``,
    ``crosstalk_aware``, ``use_range_detection``, ``pattern``,
    ``greedy_cycle_cap`` and ``unify_swaps``; for baselines, the keyword
    arguments of the underlying ``repro.baselines.compile_*`` function.
    Pass ``on_pass_end=callback`` to observe each pipeline pass as it
    finishes.

    Every method additionally understands the program-assembly knobs
    ``layers`` (p, default 1), ``mixer`` (``"rx"`` / ``"none"``) and the
    optional per-layer angle schedules ``gammas`` / ``betas``: the
    compiled cost layer is assembled into a p-layer
    :class:`~repro.ir.program.Program` (odd layers replay the compiled
    layer in reversed op order so the net qubit permutation cancels
    pairwise), attached as ``CompiledResult.program`` with summary
    telemetry in ``extra["program"]``.  ``CompiledResult.circuit`` is
    always the single cost layer, byte-identical across ``layers``
    values.

    The returned circuit is validated in tests against the semantic
    validator for every method.
    """
    from ..pipeline.registry import get_method

    on_pass_end = options.pop("on_pass_end", None)
    return get_method(method).compile(coupling, problem, noise=noise,
                                      gamma=gamma, on_pass_end=on_pass_end,
                                      **options)
