"""One streaming pass for a circuit's depth, fused CX count and esp.

:class:`MetricTracker` is the one fused-CX fold.  It replicates
``Circuit.depth`` (the ASAP schedule length), the fusion-aware CX count
of :mod:`repro.ir.decompose` (a CPHASE and a SWAP on the same pair with
nothing between them on either qubit cost 3 CX together) and, given a
noise model, ``NoiseModel.esp``.  Three callers share it:

* the ATA walk (:mod:`repro.ata.executor`) scores candidates by handing
  each cycle's kept actions to :meth:`MetricTracker.feed` as
  ``(code, u, v)`` triples;
* :func:`scan_circuit` feeds a whole circuit through
  :meth:`MetricTracker.feed_ops`, which also counts its SWAPs: the
  candidate pass, ``count_cx`` and ``CompiledResult.to_record`` read
  depth, CX count and SWAP count from that one pass;
* lint rule RL021 recomputes a recorded CX count with ``count_cx``.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from .gates import CPHASE, CX, SWAP, Op

if TYPE_CHECKING:  # pragma: no cover - repro.arch imports repro.ir
    from ..arch.noise import NoiseModel
    from .circuit import Circuit

#: Op-kind codes of the ``(code, u, v)`` triples the tracker folds.  The
#: two kinds that can fuse take the lowest codes, so ``code <= K_SWAP``
#: tests it.
K_CPHASE = 0
K_SWAP = 1
K_CX = 2
K_OTHER = 3

#: Two-qubit ops as the tracker takes them: ``(code, u, v)``.
Ops = Sequence[Tuple[int, int, int]]

_KIND_CODE: Dict[str, int] = {CPHASE: K_CPHASE, SWAP: K_SWAP, CX: K_CX}

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
    ``NoiseModel.esp``.  :meth:`feed_ops` counts SWAP ops in ``n_swap``.
    """

    def __init__(self, n_qubits: int,
                 noise: Optional["NoiseModel"] = None) -> None:
        self.noise = noise
        self.busy = [0] * n_qubits
        self.depth = 0
        self.cx = 0
        self.held_partner = [-1] * n_qubits
        self.held_kind = [0] * n_qubits
        self.n_single = 0
        self.n_swap = 0
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
        """Arbitrary ops in order; two-qubit runs go to :meth:`feed`."""
        batch: List[Tuple[int, int, int]] = []
        kind_code = _KIND_CODE
        n_swap = self.n_swap
        for op in ops:
            qubits = op.qubits
            code = kind_code.get(op.kind, K_OTHER)
            if code == K_SWAP:
                n_swap += 1
            if len(qubits) == 2:
                batch.append((code, qubits[0], qubits[1]))
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
        self.n_swap = n_swap

    def finalize(self) -> Tuple[int, int, Optional[float]]:
        """(depth, cx_count, esp) — non-destructive, fork-safe."""
        depth = self.depth
        if self.noise is None or self.edge_cx is None:
            return depth, self.cx, None
        # The terms of ``NoiseModel.esp``; zero tallies add exact zeros.
        terms = [n * keep for n, keep in zip(self.edge_cx, self.log_keep)]
        terms.append(self.n_single * math.log1p(-self.noise.sq_error))
        return depth, self.cx, math.exp(math.fsum(terms))


def scan_circuit(circuit: "Circuit",
                 noise: Optional["NoiseModel"] = None) -> MetricTracker:
    """A tracker fed every op of ``circuit`` in one pass: its ``depth``,
    ``cx`` and ``n_swap`` are ``circuit.depth()``,
    ``circuit.cx_count(unify=True)`` and ``circuit.swap_count``, and
    with ``noise`` :meth:`~MetricTracker.finalize`'s esp is
    ``noise.esp(circuit)``."""
    tracker = MetricTracker(circuit.n_qubits, noise)
    tracker.feed_ops(circuit.ops)
    return tracker
