"""Circuit container with ASAP layering and the paper's depth metric.

The paper (Section 4.1) schedules circuits in *cycles*: every gate —
single-qubit, CPHASE or SWAP — occupies exactly one cycle, and two gates can
share a cycle iff they act on disjoint qubits.  ``Circuit.depth()`` is the
length of that cycle schedule computed greedily (ASAP), which equals the
critical-path length because all gates have unit duration.

Post-decomposition metrics (CX count / CX depth) live in
:mod:`repro.ir.decompose`; they are exposed here as convenience methods.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

from .gates import CPHASE, SWAP, Op


class Circuit:
    """An ordered list of operations on ``n_qubits`` physical qubits.

    Program order is significant only through qubit overlap: the scheduler
    may reorder non-overlapping operations freely (they commute trivially).
    """

    def __init__(self, n_qubits: int, ops: Optional[Iterable[Op]] = None) -> None:
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        self.n_qubits = n_qubits
        self._ops: List[Op] = []
        if ops is not None:
            for op in ops:
                self.append(op)

    # -- construction -------------------------------------------------------------

    def append(self, op: Op) -> None:
        for q in op.qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.n_qubits}-qubit circuit")
        if len(set(op.qubits)) != len(op.qubits):
            raise ValueError(f"duplicate qubit in {op!r}")
        self._ops.append(op)

    def extend(self, ops: Iterable[Op]) -> None:
        for op in ops:
            self.append(op)

    @classmethod
    def from_ops_unchecked(cls, n_qubits: int,
                           ops: Iterable[Op]) -> "Circuit":
        """Build a circuit **without** the per-op qubit checks.

        The lint subsystem loads possibly-corrupt documents this way so
        that out-of-range or duplicated qubit indices become diagnostics
        (``RL002``/``RL003``) instead of construction errors.  Metric
        methods (``depth``/``layers``) may raise on such circuits; only
        the tolerant lint scan is guaranteed to handle them.
        """
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        circuit = cls.__new__(cls)
        circuit.n_qubits = n_qubits
        circuit._ops = list(ops)
        return circuit

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot concatenate circuits of different widths")
        return Circuit(self.n_qubits, list(self._ops) + list(other._ops))

    def copy(self) -> "Circuit":
        return Circuit(self.n_qubits, list(self._ops))

    # -- access -------------------------------------------------------------------

    @property
    def ops(self) -> Sequence[Op]:
        return self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self._ops)

    def __repr__(self) -> str:
        return (f"Circuit(n_qubits={self.n_qubits}, ops={len(self._ops)}, "
                f"depth={self.depth()})")

    # -- metrics ------------------------------------------------------------------

    def depth(self, two_qubit_only: bool = False) -> int:
        """ASAP cycle count; every op takes one cycle.

        With ``two_qubit_only`` single-qubit gates are ignored, matching
        evaluations that count only entangling layers.
        """
        busy_until = [0] * self.n_qubits
        depth = 0
        for op in self._ops:
            if two_qubit_only and not op.is_two_qubit:
                continue
            start = max(busy_until[q] for q in op.qubits)
            end = start + 1
            for q in op.qubits:
                busy_until[q] = end
            if end > depth:
                depth = end
        return depth

    def layers(self, two_qubit_only: bool = False) -> List[List[Op]]:
        """The ASAP schedule as a list of cycles (lists of ops)."""
        busy_until = [0] * self.n_qubits
        result: List[List[Op]] = []
        for op in self._ops:
            if two_qubit_only and not op.is_two_qubit:
                continue
            start = max(busy_until[q] for q in op.qubits)
            for q in op.qubits:
                busy_until[q] = start + 1
            while len(result) <= start:
                result.append([])
            result[start].append(op)
        return result

    def count_kind(self, kind: str) -> int:
        return sum(1 for op in self._ops if op.kind == kind)

    @property
    def swap_count(self) -> int:
        return self.count_kind(SWAP)

    @property
    def cphase_count(self) -> int:
        return self.count_kind(CPHASE)

    def two_qubit_ops(self) -> Iterator[Op]:
        return (op for op in self._ops if op.is_two_qubit)

    def cx_count(self, unify: bool = True) -> int:
        """Number of CX gates after decomposition (see :mod:`.decompose`)."""
        from .decompose import count_cx

        return count_cx(self, unify=unify)


def circuit_from_layers(n_qubits: int,
                        layers: Iterable[Iterable[Op]]) -> Circuit:
    """Build a circuit from explicit cycles, checking intra-layer conflicts."""
    circuit = Circuit(n_qubits)
    for cycle, layer in enumerate(layers):
        used: set = set()
        for op in layer:
            for q in op.qubits:
                if q in used:
                    raise ValueError(
                        f"qubit {q} used twice in layer {cycle}")
                used.add(q)
            circuit.append(op)
    return circuit
