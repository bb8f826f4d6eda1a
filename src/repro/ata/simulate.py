"""Metric scoring of an ATA-suffix walk — the lazy-candidate core.

The hybrid pipeline scores up to ``max_predictions`` (default 24)
prefix+suffix candidates plus ``cc0`` but keeps exactly one;
materialising every candidate circuit (Op objects, validated appends,
then full decompose/depth passes) would dominate compile time at the
paper's 1024-qubit scale.  :func:`candidate_metrics` therefore feeds
the executor's own schedule walk (:class:`repro.ata.executor.Walk`) to
a :class:`~repro.ir.tracker.MetricTracker` instead of to a circuit.
The tracker reproduces the three selector inputs exactly:

* **depth** — the ASAP schedule length, replicating ``Circuit.depth``;
* **gate count** — fusion-aware CX count, replicating
  ``count_cx(unify=True)`` (adjacent CPHASE+SWAP on a pair = 3 CX);
* **esp** — when a noise model is present, the success-probability
  product of ``NoiseModel.esp``: an exactly rounded ``math.fsum`` over
  per-coupling CX tallies, so it does not depend on accumulation order.

The walk replays each pattern's cached ``(code, u, v)`` cycles
(:func:`repro.ata.executor.compiled_cycles`) and calls
:meth:`MetricTracker.feed` once per cycle with the actions it kept,
which the tracker folds in one loop over local variables.  The fold is
plain Python: at 64 and 256 qubits a cycle keeps a median of 14-35
ops, too few for array dispatch to pay (docs/performance.md measures
the per-cycle batching and the array question).

:func:`~repro.ir.tracker.scan_circuit` runs the same tracker over a
whole circuit; the candidate pass takes the finished greedy circuit's
metrics from it.

A scoring can also stop early.  Depth and fused CX count never
decrease as ops stream in, so a caller's ``stop`` predicate over the
running tracker may end a suffix as soon as its candidate provably
cannot win; ``stop`` is checked after every pattern cycle and every
completed residual pair (after each batch the tracker is fed), and
:func:`candidate_metrics` then returns ``None``.

The selected candidate is materialised afterwards by the same walk fed
to a circuit, so its metrics are the scored ones; the golden fixtures
pin the circuits, and ``tests/ata/test_simulate.py`` pins metric
equality.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

from ..arch.coupling import CouplingGraph
from ..arch.noise import NoiseModel
from ..ir.mapping import Mapping
from ..ir.tracker import MetricTracker
from .base import AtaPattern
from .executor import Walk

def candidate_metrics(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    noise: Optional[NoiseModel] = None,
    use_range_detection: bool = True,
    prefix_tracker: Optional[MetricTracker] = None,
    stop: Optional[Callable[[], bool]] = None,
    state: Optional[Walk] = None,
    labels: Optional[Sequence[int]] = None,
) -> Optional[Tuple[int, int, Optional[float]]]:
    """(depth, cx_count, esp) of prefix + ATA suffix, without a circuit.

    ``prefix_tracker`` carries the already-streamed greedy prefix (fork
    it per candidate); omitted, the suffix is scored from scratch — the
    pure-ATA candidate ``cc0``.  ``state``, when given, is a walk
    already at ``mapping`` with exactly the canonical ``remaining``
    pending, whose components ``labels`` name; the suffix's walk
    resumes from a copy of it (:meth:`Walk.resume`).  ``None`` when
    ``stop`` fired and the suffix was abandoned.
    """
    tracker = (prefix_tracker if prefix_tracker is not None
               else MetricTracker(coupling.n_qubits, noise))
    walk = (Walk(mapping, remaining) if state is None
            else Walk.resume(state, mapping, remaining, labels))
    if walk.suffix(coupling, pattern, tracker.feed, use_range_detection,
                   stop):
        return None
    return tracker.finalize()
