"""The three circuit walks a compiled job's record used to make.

Frozen copies of ``Circuit.depth``, the ``fusion_units`` grouping behind
``count_cx`` and ``Circuit.swap_count`` as they were before the record,
``count_cx`` and lint rule RL021 took all three from one
:class:`repro.ir.tracker.MetricTracker` pass.  ``test_tracker.py`` and
the lint differential test (``tests/lint/reference_lint.py``) compare
the one-pass values against these.
"""

from typing import Dict, Iterator, List, Tuple

from repro.ir.circuit import Circuit
from repro.ir.gates import CPHASE, CX, SWAP, Op, canonical_edge

_STANDALONE = "standalone"
_FUSED = "fused"


def reference_depth(circuit: Circuit) -> int:
    """ASAP cycle count; every op takes one cycle."""
    busy_until = [0] * circuit.n_qubits
    depth = 0
    for op in circuit.ops:
        start = max(busy_until[q] for q in op.qubits)
        end = start + 1
        for q in op.qubits:
            busy_until[q] = end
        if end > depth:
            depth = end
    return depth


def reference_swap_count(circuit: Circuit) -> int:
    return sum(1 for op in circuit.ops if op.kind == SWAP)


def _fusion_units(circuit: Circuit) -> Iterator[Tuple[str, List[Op]]]:
    pending: Dict[Tuple[int, int], Op] = {}
    qubit_to_pair: Dict[int, Tuple[int, int]] = {}

    def flush(pair):
        op = pending.pop(pair)
        for q in pair:
            qubit_to_pair.pop(q, None)
        yield (_STANDALONE, [op])

    for op in circuit.ops:
        if op.kind in (CPHASE, SWAP):
            pair = canonical_edge(*op.qubits)
            held = pending.get(pair)
            if held is not None and held.kind != op.kind:
                pending.pop(pair)
                for q in pair:
                    qubit_to_pair.pop(q, None)
                cphase_op = held if held.kind == CPHASE else op
                swap_op = op if held.kind == CPHASE else held
                yield (_FUSED, [cphase_op, swap_op])
                continue
            for q in op.qubits:
                other = qubit_to_pair.get(q)
                if other is not None:
                    yield from flush(other)
            pending[pair] = op
            for q in pair:
                qubit_to_pair[q] = pair
        else:
            for q in op.qubits:
                other = qubit_to_pair.get(q)
                if other is not None:
                    yield from flush(other)
            yield (_STANDALONE, [op])

    for pair in list(pending):
        if pair in pending:
            yield from flush(pair)


def reference_count_cx(circuit: Circuit, unify: bool = True) -> int:
    """CX gates in the decomposed circuit, fused pairs 3 (``unify``) or 5."""
    total = 0
    for unit_kind, ops in _fusion_units(circuit):
        if unit_kind == _FUSED:
            total += 3 if unify else 5
        else:
            op = ops[0]
            if op.kind == CPHASE:
                total += 2
            elif op.kind == SWAP:
                total += 3
            elif op.kind == CX:
                total += 1
    return total
