"""Decomposition of abstract circuits into the CX + single-qubit basis.

The paper reports two-qubit gate counts after decomposing compiled circuits
into CX gates (Section 7.1).  The relevant identities:

* lone ``CPHASE(g)``      -> 2 CX + 3 phase gates
* lone ``SWAP``           -> 3 CX
* ``CPHASE(g)`` and ``SWAP`` on the *same* pair with nothing in between
  -> 3 CX + 3 phase gates (the standard ZZ+SWAP "unified" gate used by
  swap networks and by the 2QAN baseline)

The fusion is what makes the structured all-to-all patterns cheap: every
pattern step is a CPHASE immediately followed by a SWAP on the same pair,
costing 3 CX instead of 5.

The exact gate sequences below are unitary-exact (tests verify them against
a dense two-qubit simulator):

``CPHASE(g)``::

    P(a, g/2) ; P(b, g/2) ; CX(a,b) ; P(b, -g/2) ; CX(a,b)

``SWAP * CPHASE(g)`` (the two commute, so order does not matter)::

    CX(a,b) ; P(a, g/2) ; P(b, -g/2) ; CX(b,a) ; P(a, g/2) ; CX(a,b)
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .circuit import Circuit
from .gates import CPHASE, CX, SWAP, Op, canonical_edge
from .tracker import scan_circuit

#: A decomposition unit: either a standalone op or a fused (cphase, swap) pair.
_Unit = Tuple[str, List[Op]]

_STANDALONE = "standalone"
_FUSED = "fused"

#: CX count of each two-qubit kind decomposed on its own.
_UNFUSED_CX: Dict[str, int] = {CPHASE: 2, SWAP: 3, CX: 1}


def fusion_units(circuit: Circuit) -> Iterator[_Unit]:
    """Scan the circuit and group fusable CPHASE/SWAP pairs.

    A CPHASE and a SWAP on the same qubit pair fuse iff no other operation
    touches either qubit between them.  Order (CPHASE then SWAP or SWAP then
    CPHASE) does not matter because the two gates commute.
    """
    pending: Dict[Tuple[int, int], Op] = {}
    qubit_to_pair: Dict[int, Tuple[int, int]] = {}

    def flush(pair: Tuple[int, int]) -> Iterator[_Unit]:
        op = pending.pop(pair)
        for q in pair:
            qubit_to_pair.pop(q, None)
        yield (_STANDALONE, [op])

    for op in circuit:
        if op.kind in (CPHASE, SWAP):
            pair = canonical_edge(*op.qubits)
            held = pending.get(pair)
            if held is not None and held.kind != op.kind:
                # Complementary gate on the same pair: fuse.
                pending.pop(pair)
                for q in pair:
                    qubit_to_pair.pop(q, None)
                cphase_op = held if held.kind == CPHASE else op
                swap_op = op if held.kind == CPHASE else held
                yield (_FUSED, [cphase_op, swap_op])
                continue
            # Flush anything this op conflicts with (including same-kind
            # repeats on the same pair), then hold this op.
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

    # Drain leftovers in first-held order.
    for pair in list(pending):
        if pair in pending:
            yield from flush(pair)


def count_cx(circuit: Circuit, unify: bool = True) -> int:
    """CX gates in the decomposed circuit without materialising it.

    The fused count is :class:`~repro.ir.tracker.MetricTracker`'s, from
    one pass; without ``unify`` a fused pair costs its two gates' 2 + 3,
    so the count is a plain sum over the ops.
    """
    if unify:
        return scan_circuit(circuit).cx
    return sum(_UNFUSED_CX.get(op.kind, 0) for op in circuit.ops)


def decompose_to_cx(circuit: Circuit, unify: bool = True) -> Circuit:
    """Rewrite the circuit over {CX, P, RZ, RX, H}.

    With ``unify`` (the default) adjacent CPHASE+SWAP pairs on the same
    qubits use the fused 3-CX implementation.
    """
    out = Circuit(circuit.n_qubits)
    for unit_kind, ops in fusion_units(circuit):
        if unit_kind == _FUSED and unify:
            cphase_op = ops[0]
            a, b = cphase_op.qubits
            g = cphase_op.param or 0.0
            out.extend([
                Op.cx(a, b),
                Op.phase(a, g / 2.0),
                Op.phase(b, -g / 2.0),
                Op.cx(b, a),
                Op.phase(a, g / 2.0),
                Op.cx(a, b),
            ])
        elif unit_kind == _FUSED:
            for op in ops:
                _decompose_single(out, op)
        else:
            _decompose_single(out, ops[0])
    return out


def _decompose_single(out: Circuit, op: Op) -> None:
    if op.kind == CPHASE:
        a, b = op.qubits
        g = op.param or 0.0
        out.extend([
            Op.phase(a, g / 2.0),
            Op.phase(b, g / 2.0),
            Op.cx(a, b),
            Op.phase(b, -g / 2.0),
            Op.cx(a, b),
        ])
    elif op.kind == SWAP:
        a, b = op.qubits
        out.extend([Op.cx(a, b), Op.cx(b, a), Op.cx(a, b)])
    else:
        out.append(op)
