"""One tracker pass counts what the three separate circuit walks did.

``scan_circuit`` feeds a circuit through :class:`MetricTracker` once;
its depth, fused CX count (``count_cx`` with ``unify`` True and False)
and SWAP count must equal the frozen ``Circuit.depth``, ``fusion_units``
count and SWAP tally of ``reference_metrics.py`` on random circuits
mixing every op kind, and ``CompiledResult.to_record`` reports them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.result import CompiledResult
from repro.ir.circuit import Circuit
from repro.ir.decompose import count_cx
from repro.ir.gates import OP_KINDS, TWO_QUBIT_KINDS, Op
from repro.ir.mapping import Mapping
from repro.ir.tracker import scan_circuit

from .reference_metrics import (reference_count_cx, reference_depth,
                                reference_swap_count)


@st.composite
def circuits(draw):
    n = draw(st.integers(2, 6))
    ops = []
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(sorted(OP_KINDS)))
        if kind in TWO_QUBIT_KINDS:
            u, v = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
            ops.append(Op(kind, (u, v), 0.5))
        else:
            ops.append(Op(kind, (draw(st.integers(0, n - 1)),), 0.5))
        if draw(st.integers(0, 3)) == 0 and ops[-1].qubits[1:]:
            # Repeat the pair, either orientation, to exercise fusion.
            u, v = ops[-1].qubits
            kind = draw(st.sampled_from(sorted(TWO_QUBIT_KINDS)))
            ops.append(Op(kind, draw(st.sampled_from([(u, v), (v, u)]))))
    return Circuit(n, ops)


@settings(max_examples=400, deadline=None)
@given(circuits())
def test_one_pass_matches_the_three_walks(circuit):
    tracker = scan_circuit(circuit)
    assert tracker.depth == reference_depth(circuit) == circuit.depth()
    assert tracker.cx == reference_count_cx(circuit, unify=True)
    assert count_cx(circuit, unify=True) == tracker.cx
    assert (count_cx(circuit, unify=False)
            == reference_count_cx(circuit, unify=False))
    assert tracker.n_swap == reference_swap_count(circuit)


@settings(max_examples=100, deadline=None)
@given(circuits())
def test_record_reports_the_one_pass(circuit):
    record = CompiledResult(circuit, Mapping.trivial(circuit.n_qubits),
                            "random").to_record()
    assert (record["depth"], record["cx"], record["swaps"],
            record["ops"]) == (reference_depth(circuit),
                               reference_count_cx(circuit),
                               reference_swap_count(circuit), len(circuit))
