"""The flat lint scan reports exactly what the per-op-view engine did.

``reference_lint.py`` freezes the engine whose scan built one ``OpView``
per op and whose rules walked those views.  The production scan keeps
flat per-op cycles and the finding lists each rule reads; its
``render_json`` must equal the reference's, diagnostics included, on
every method's output on six architectures at p = 1 and p = 2, and on
circuits and programs mutated to trip every rule.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import architecture_for
from repro.compiler.result import CompiledResult
from repro.ir.circuit import Circuit
from repro.ir.gates import CPHASE, H, PHASE, RX, RZ, SWAP, Op
from repro.ir.mapping import Mapping
from repro.ir.serialize import program_from_dict, program_to_dict
from repro.lint import lint_circuit, lint_result, render_json
from repro.pipeline.registry import available_methods, get_method
from repro.problems import random_problem_graph
from tests.ir.reference_metrics import (reference_count_cx, reference_depth,
                                        reference_swap_count)

from .reference_lint import reference_lint_circuit, reference_lint_result

ARCHES = ("line", "grid", "sycamore", "hexagon", "heavyhex", "cube")
METHODS = sorted(name for name in available_methods()
                 if name not in ("olsq", "optimal"))
SINGLE_KINDS = (H, RX, RZ, PHASE)


@lru_cache(maxsize=None)
def _compiled(method, arch, layers):
    coupling = architecture_for(arch, 8)
    problem = random_problem_graph(8, 0.35, seed=7)
    return get_method(method).compile(coupling, problem, layers=layers), \
        coupling, problem


def _record_metrics(circuit):
    return {"depth": reference_depth(circuit),
            "cx": reference_count_cx(circuit),
            "swaps": reference_swap_count(circuit), "ops": len(circuit)}


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("arch", ARCHES)
@pytest.mark.parametrize("method", METHODS)
def test_method_reports_agree(method, arch, layers):
    result, coupling, problem = _compiled(method, arch, layers)
    expected = _record_metrics(result.circuit)
    off = dict(expected, depth=expected["depth"] + 1, cx=expected["cx"] - 1)
    for kwargs in ({}, {"allow_repeats": True},
                   {"require_all_edges": False, "expected": expected},
                   {"expected": off}):
        assert (render_json(lint_result(result, coupling, problem,
                                        **kwargs))
                == render_json(reference_lint_result(
                    result, coupling, problem, **kwargs))), kwargs


# -- mutated circuits ---------------------------------------------------------

@lru_cache(maxsize=None)
def _base(index):
    """Compiled circuits with spare physical qubits (8 logical on 9+)."""
    arch, method, seed = (("grid", "hybrid", 1), ("heavyhex", "greedy", 2),
                          ("line", "sabre", 3), ("sycamore", "ata", 4),
                          ("cube", "2qan", 5))[index]
    coupling = architecture_for(arch, 9)
    problem = random_problem_graph(8, 0.4, seed=seed)
    result = get_method(method).compile(coupling, problem)
    return result, coupling, problem


def _mutate(draw, ops, mapping, coupling, problem):
    n = coupling.n_qubits
    edges = sorted(coupling.edges)
    kind = draw(st.sampled_from(
        ["drop", "duplicate", "reorder", "retarget", "tag", "cancel",
         "cx", "single", "uncoupled", "spare", "mapping"]))
    position = draw(st.integers(0, len(ops)))
    if kind == "drop" and ops:
        del ops[min(position, len(ops) - 1)]
    elif kind == "duplicate" and ops:
        ops.insert(position, draw(st.sampled_from(ops)))
    elif kind == "reorder" and len(ops) > 1:
        i = draw(st.integers(0, len(ops) - 1))
        j = draw(st.integers(0, len(ops) - 1))
        ops[i], ops[j] = ops[j], ops[i]
    elif kind == "retarget" and ops:
        i = min(position, len(ops) - 1)
        op = ops[i]
        qubits = list(op.qubits)
        slot = draw(st.integers(0, len(qubits) - 1))
        target = draw(st.sampled_from(["in", "out", "dup"]))
        if target == "in":
            qubits[slot] = draw(st.integers(0, n - 1))
        elif target == "out":
            qubits[slot] = draw(st.sampled_from([n, n + 3, -1]))
        elif len(qubits) == 2:
            qubits[slot] = qubits[1 - slot]
        ops[i] = Op(op.kind, tuple(qubits), op.param, op.tag)
    elif kind == "tag":
        tagged = [i for i, op in enumerate(ops)
                  if op.kind == CPHASE and op.tag is not None]
        if tagged:
            i = draw(st.sampled_from(tagged))
            u, v = ops[i].tag
            tag = draw(st.sampled_from(
                [(v, u)] + sorted(problem.edges) + [(u, u + 1)]))
            ops[i] = Op(CPHASE, ops[i].qubits, ops[i].param, tag)
    elif kind == "cancel":
        swaps = [i for i, op in enumerate(ops) if op.kind == SWAP]
        if swaps and draw(st.booleans()):
            i = draw(st.sampled_from(swaps))
            u, v = ops[i].qubits
            ops.insert(i + 1, Op.swap(*draw(st.sampled_from(
                [(u, v), (v, u)]))))
        else:
            u, v = draw(st.sampled_from(edges))
            ops[position:position] = [Op.swap(u, v), Op.swap(v, u)]
    elif kind == "cx":
        u, v = draw(st.sampled_from(edges))
        ops.insert(position, Op.cx(*draw(st.sampled_from([(u, v), (v, u)]))))
    elif kind == "single":
        gate = draw(st.sampled_from(SINGLE_KINDS))
        ops.insert(position, Op(gate, (draw(st.integers(0, n - 1)),),
                                None if gate == H else 0.25))
    elif kind == "uncoupled":
        free = [(u, v) for u in range(n) for v in range(u + 1, n)
                if not coupling.has_edge(u, v)]
        two = [i for i, op in enumerate(ops) if op.is_two_qubit]
        if free and two:
            i = draw(st.sampled_from(two))
            ops[i] = Op(ops[i].kind, draw(st.sampled_from(free)),
                        ops[i].param, ops[i].tag)
    elif kind == "spare":
        spare = [p for p in range(n) if mapping.logical(p) is None]
        if spare:
            p = draw(st.sampled_from(spare))
            q = draw(st.sampled_from(list(coupling.neighbors(p))))
            ops.insert(position, Op.cphase(p, q, 0.5))
    elif kind == "mapping":
        homes = list(mapping.log_to_phys)
        a = draw(st.integers(0, len(homes) - 1))
        spare = [p for p in range(n) if p not in homes]
        target = draw(st.sampled_from(
            spare + [homes[b] for b in range(len(homes)) if b != a]))
        if target in homes:
            b = homes.index(target)
            homes[a], homes[b] = homes[b], homes[a]
        else:
            homes[a] = target
        mapping = Mapping(homes, mapping.n_physical)
    return mapping


@st.composite
def mutated_cases(draw):
    result, coupling, problem = _base(draw(st.integers(0, 4)))
    ops = list(result.circuit.ops)
    mapping = result.initial_mapping
    for _ in range(draw(st.integers(1, 4))):
        mapping = _mutate(draw, ops, mapping, coupling, problem)
    expected = None
    if draw(st.booleans()):
        recorded = _record_metrics(result.circuit)
        keys = draw(st.sets(st.sampled_from(sorted(recorded)), min_size=1))
        shift = draw(st.integers(-1, 1))
        expected = {key: recorded[key] + shift for key in keys}
    flags = {"require_all_edges": draw(st.booleans()),
             "allow_repeats": draw(st.booleans()), "expected": expected}
    circuit = Circuit.from_ops_unchecked(result.circuit.n_qubits, ops)
    return circuit, coupling.edges, mapping, problem.edges, flags


@settings(max_examples=300, deadline=None)
@given(mutated_cases())
def test_mutated_circuit_reports_agree(case):
    circuit, coupling, mapping, problem, flags = case
    assert (render_json(lint_circuit(circuit, coupling, mapping, problem,
                                     **flags))
            == render_json(reference_lint_circuit(
                circuit, coupling, mapping, problem, **flags)))


# -- mutated programs ---------------------------------------------------------

@st.composite
def mutated_programs(draw):
    method = draw(st.sampled_from(["hybrid", "sabre", "2qan"]))
    arch = draw(st.sampled_from(["grid", "heavyhex"]))
    result, coupling, problem = _compiled(method, arch,
                                          draw(st.sampled_from([2, 3, 4])))
    document = program_to_dict(result.program)
    layer = draw(st.integers(0, len(document["layers"]) - 1))
    entry = document["layers"][layer]
    field = draw(st.sampled_from(["ops", "input", "output"]))
    if field == "ops":
        ops = entry["circuit"]["ops"]
        if ops and draw(st.booleans()):
            del ops[draw(st.integers(0, len(ops) - 1))]
        else:
            u, v = draw(st.sampled_from(sorted(coupling.edges)))
            ops.insert(draw(st.integers(0, len(ops))),
                       {"kind": "swap", "qubits": [u, v]})
    else:
        key = f"{field}_log_to_phys"
        homes = entry[key]
        a, b = draw(st.permutations(range(len(homes))))[:2]
        homes[a], homes[b] = homes[b], homes[a]
    program = program_from_dict(document, check=False)
    mutated = CompiledResult(circuit=program.layers[0].circuit,
                             initial_mapping=program.initial_mapping,
                             method=method, program=program)
    return mutated, coupling, problem, draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(mutated_programs())
def test_mutated_program_reports_agree(case):
    result, coupling, problem, allow_repeats = case
    assert (render_json(lint_result(result, coupling, problem,
                                    allow_repeats=allow_repeats))
            == render_json(reference_lint_result(
                result, coupling, problem, allow_repeats=allow_repeats)))
