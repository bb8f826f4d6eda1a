"""Metric scoring of an ATA-suffix walk — the lazy-candidate core.

The hybrid pipeline scores up to ``max_predictions`` (default 24)
prefix+suffix candidates plus ``cc0`` but keeps exactly one;
materialising every candidate circuit (Op objects, validated appends,
then full decompose/depth passes) would dominate compile time at the
paper's 1024-qubit scale.  :func:`candidate_metrics` therefore feeds
the executor's own schedule walk (:class:`repro.ata.executor.Walk`) to
a :class:`MetricTracker` instead of to a circuit.  The tracker
reproduces the three selector inputs exactly:

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

:func:`circuit_metrics` runs the same tracker over a whole circuit; the
candidate pass takes the finished greedy circuit's metrics from it.

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

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..arch.coupling import CouplingGraph
from ..arch.noise import NoiseModel
from ..ir.circuit import Circuit
from ..ir.gates import CPHASE, CX, SWAP, Op
from ..ir.mapping import Mapping
from .base import AtaPattern
from .executor import K_CPHASE, K_SWAP, Ops, Walk

#: Op-kind codes past the walk's two (CPHASE and SWAP, the kinds that
#: can fuse, hold the lowest codes: ``code <= K_SWAP`` tests it).
K_CX = 2
K_OTHER = 3

_KIND_CODE = {CPHASE: K_CPHASE, SWAP: K_SWAP, CX: K_CX}

#: CX cost of a standalone (unfused) unit, by kind code.
_STANDALONE_CX = (2, 3, 1, 0)


class MetricTracker:
    """Streaming replica of depth / fused CX count / esp.

    ``busy[q]`` is the ASAP layer count on qubit ``q``; ``depth`` is kept
    equal to their maximum as ops arrive.  Every op is
    charged its standalone CX cost when it arrives; a CPHASE or SWAP then
    stays on ``held_partner`` / ``held_kind`` until the next op on either
    of its qubits, and if that op is its complement on the same pair the
    two fuse into 3 CX together, so the second is charged the difference.
    With a noise model the tracker also keeps an integer CX tally per
    coupling, in :attr:`NoiseModel.cx_error` order, and the single-qubit
    op count; esp is an exactly rounded ``fsum`` of the same terms as
    ``NoiseModel.esp``.
    """

    def __init__(self, n_qubits: int,
                 noise: Optional[NoiseModel] = None) -> None:
        self.noise = noise
        self.busy = [0] * n_qubits
        self.depth = 0
        self.cx = 0
        self.held_partner = [-1] * n_qubits
        self.held_kind = [0] * n_qubits
        self.n_single = 0
        self.edge_cx: Optional[List[int]] = None
        if noise is not None:
            # Shared by every fork of this tracker, never mutated.
            self.edge_index: Dict[Tuple[int, int], int] = {
                edge: index for index, edge in enumerate(noise.cx_error)}
            self.log_keep = [math.log1p(-error)
                             for error in noise.cx_error.values()]
            self.edge_cx = [0] * len(self.edge_index)

    def copy(self) -> "MetricTracker":
        clone = MetricTracker.__new__(MetricTracker)
        clone.__dict__.update(self.__dict__)
        clone.busy = self.busy[:]
        clone.held_partner = self.held_partner[:]
        clone.held_kind = self.held_kind[:]
        if self.edge_cx is not None:
            clone.edge_cx = self.edge_cx[:]
        return clone

    def feed(self, ops: Ops) -> None:
        """Two-qubit ops ``(code, u, v)`` on physical qubits, in order."""
        busy = self.busy
        held = self.held_partner
        kind = self.held_kind
        standalone = _STANDALONE_CX
        edge_cx = self.edge_cx
        edge_index = self.edge_index if edge_cx is not None else None
        depth = self.depth
        cx = self.cx
        for code, u, v in ops:
            bu = busy[u]
            bv = busy[v]
            end = (bu if bu >= bv else bv) + 1
            busy[u] = end
            busy[v] = end
            if end > depth:
                depth = end
            held_u = held[u]
            if held_u == v and kind[u] != code and code <= K_SWAP:
                n_cx = 3 - standalone[kind[u]]
                held[u] = -1
                held[v] = -1
            else:
                if held_u >= 0:
                    held[held_u] = -1
                held_v = held[v]
                if held_v >= 0:
                    held[held_v] = -1
                n_cx = standalone[code]
                if code <= K_SWAP:
                    held[u] = v
                    held[v] = u
                    kind[u] = code
                    kind[v] = code
                else:
                    held[u] = -1
                    held[v] = -1
            cx += n_cx
            if edge_cx is not None:
                edge_cx[edge_index[(u, v) if u < v else (v, u)]] += n_cx
        self.depth = depth
        self.cx = cx

    def feed_ops(self, ops: Iterable[Op]) -> None:
        """Arbitrary ops in order (greedy circuits hold CPHASE/SWAP only)."""
        batch: List[Tuple[int, int, int]] = []
        for op in ops:
            qubits = op.qubits
            if len(qubits) == 2:
                batch.append((_KIND_CODE.get(op.kind, K_OTHER),
                              qubits[0], qubits[1]))
                continue
            if batch:
                self.feed(batch)
                batch = []
            busy = self.busy
            held = self.held_partner
            end = max(busy[q] for q in qubits) + 1
            if end > self.depth:
                self.depth = end
            for q in qubits:
                busy[q] = end
                if held[q] >= 0:
                    held[held[q]] = -1
                    held[q] = -1
            if len(qubits) == 1:
                self.n_single += 1
        if batch:
            self.feed(batch)

    def finalize(self) -> Tuple[int, int, Optional[float]]:
        """(depth, cx_count, esp) — non-destructive, fork-safe."""
        depth = self.depth
        if self.noise is None or self.edge_cx is None:
            return depth, self.cx, None
        # The terms of ``NoiseModel.esp``; zero tallies add exact zeros.
        terms = [n * keep for n, keep in zip(self.edge_cx, self.log_keep)]
        terms.append(self.n_single * math.log1p(-self.noise.sq_error))
        return depth, self.cx, math.exp(math.fsum(terms))


def candidate_metrics(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    noise: Optional[NoiseModel] = None,
    use_range_detection: bool = True,
    prefix_tracker: Optional[MetricTracker] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> Optional[Tuple[int, int, Optional[float]]]:
    """(depth, cx_count, esp) of prefix + ATA suffix, without a circuit.

    ``prefix_tracker`` carries the already-streamed greedy prefix (fork
    it per candidate); omitted, the suffix is scored from scratch — the
    pure-ATA candidate ``cc0``.  ``None`` when ``stop`` fired and the
    suffix was abandoned.
    """
    tracker = (prefix_tracker if prefix_tracker is not None
               else MetricTracker(coupling.n_qubits, noise))
    if Walk(mapping, remaining).suffix(coupling, pattern, tracker.feed,
                                       use_range_detection, stop):
        return None
    return tracker.finalize()


def circuit_metrics(circuit: Circuit, noise: Optional[NoiseModel] = None
                    ) -> Tuple[int, int, Optional[float]]:
    """(depth, cx_count, esp) of ``circuit`` from one tracker pass: the
    values of ``circuit.depth()``, ``circuit.cx_count(unify=True)`` and
    ``noise.esp(circuit)`` (``None`` without a noise model)."""
    tracker = MetricTracker(circuit.n_qubits, noise)
    tracker.feed_ops(circuit.ops)
    return tracker.finalize()
