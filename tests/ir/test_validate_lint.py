"""Validation is lint's blocking rules: regressions and a differential test.

``reference_validate`` and ``reference_validate_program`` freeze the
hand-written fail-fast loops that ``validate_compiled`` and the
per-layer program check used to be; that check is now the blocking
rules over ``program_contexts``, the scan ``CompiledResult.validate``
makes for p > 1.  The lint-backed validator must reach
the same verdict, and the same :class:`ValidationReport` on acceptance,
on every lint fixture, on every method's output at p=1 and p=2, and on
mutated compiled circuits.  On malformed ops (out-of-range or duplicated
qubits) it may only be stricter: where the reference accepted or
crashed, it raises :class:`ValidationError`.
"""

import json
import pathlib
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import architecture_for, line
from repro.compiler.result import CompiledResult
from repro.exceptions import ValidationError
from repro.ir.circuit import Circuit
from repro.ir.gates import CPHASE, SWAP, Op, canonical_edge, canonical_edges
from repro.ir.mapping import Mapping
from repro.ir.program import (ROLE_COST, Program, ProgramLayer,
                              layer_permutation)
from repro.ir.serialize import (circuit_from_dict, mapping_from_dict,
                                problem_from_dict, program_from_dict)
from repro.ir.validate import (ValidationReport, blocking_lint,
                               validate_compiled, validate_lint_report)
from repro.lint import BLOCKING_RULES, all_rules, build_context, lint_result
from repro.lint.engine import program_contexts
from repro.pipeline.registry import available_methods, get_method
from repro.problems import clique, random_problem_graph

FIXTURES = pathlib.Path(__file__).parent.parent / "lint" / "fixtures"

#: The reference crashed instead of reaching a verdict.
CRASH = "crash"
REJECT = "reject"


# -- the frozen reference ----------------------------------------------------

def reference_validate(circuit, coupling_edges, initial_mapping,
                       problem_edges, require_all_edges=True,
                       allow_repeats=False):
    hardware = canonical_edges(coupling_edges)
    required = canonical_edges(problem_edges)
    mapping = initial_mapping.copy()
    report = ValidationReport()
    for index, op in enumerate(circuit):
        if op.is_two_qubit:
            pair = canonical_edge(*op.qubits)
            if pair not in hardware:
                raise ValidationError(f"op #{index} uncoupled {pair}")
        if op.kind == CPHASE:
            u, v = op.qubits
            lu, lv = mapping.logical(u), mapping.logical(v)
            if lu is None or lv is None:
                raise ValidationError(f"op #{index} spare")
            logical_edge = canonical_edge(lu, lv)
            if logical_edge not in required:
                raise ValidationError(f"op #{index} not a problem edge")
            if logical_edge in report.executed_edges and not allow_repeats:
                raise ValidationError(f"op #{index} repeats")
            if op.tag is not None and canonical_edge(*op.tag) != logical_edge:
                raise ValidationError(f"op #{index} tag")
            report.executed_edges.add(logical_edge)
            report.n_cphase += 1
        elif op.kind == SWAP:
            mapping.swap_physical(*op.qubits)
            report.n_swap += 1
    if require_all_edges and required - report.executed_edges:
        raise ValidationError("never executed")
    report.final_mapping = mapping
    return report


def reference_validate_program(program):
    for layer in program.layers:
        scanned = layer_permutation(
            layer.circuit, layer.input_mapping(program.n_qubits))
        if tuple(scanned.log_to_phys) != layer.output_log_to_phys:
            raise ValidationError("provenance")
    if program.p % 2 == 0 and not program.net_permutation_is_identity:
        raise ValidationError("uncancelled")


def verdict(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValidationError:
        return REJECT
    except (IndexError, TypeError, ValueError):
        return CRASH


def assert_agrees(reference, new, malformed=False):
    """``new`` reaches ``reference``'s verdict; on malformed input it may
    only be stricter (reject where the reference accepted or crashed)."""
    if malformed:
        assert new == REJECT, new
    elif reference == CRASH:
        assert new == REJECT, new
    else:
        assert new == reference, (reference, new)


def is_malformed(circuit, coupling, mapping, problem):
    return build_context(circuit, coupling, mapping, problem).has_malformed


# -- regressions: where the two definitions used to disagree ------------------

def test_out_of_range_single_qubit_op_is_rejected():
    # The reference accepted this; lint reports RL003.
    circuit = Circuit.from_ops_unchecked(3, [Op.rx(7, 0.1)])
    args = (circuit, [(0, 1), (1, 2)], Mapping.trivial(3), [])
    assert isinstance(reference_validate(*args), ValidationReport)
    with pytest.raises(ValidationError, match="RL003"):
        validate_compiled(*args)


def test_coupled_pair_outside_the_register_is_a_typed_error():
    # The reference raised a bare IndexError; lint reports RL003.
    circuit = Circuit.from_ops_unchecked(3, [Op.cphase(0, 5)])
    args = (circuit, [(0, 1), (1, 2), (0, 5)], Mapping.trivial(3), [(0, 1)])
    with pytest.raises(IndexError):
        reference_validate(*args)
    with pytest.raises(ValidationError, match="RL003"):
        validate_compiled(*args)


def test_blocking_rules_are_the_errors_plus_rl032():
    errors = {r.code for r in all_rules() if r.severity == "error"}
    assert set(BLOCKING_RULES) == errors | {"RL032"}


def test_rejection_names_the_rule_and_the_op():
    circuit = Circuit(3, [Op.cphase(0, 1), Op.cphase(0, 2)])
    with pytest.raises(ValidationError,
                       match=r"RL001 at op#1 .*uncoupled"):
        validate_compiled(circuit, [(0, 1), (1, 2)], Mapping.trivial(3),
                          [(0, 1), (0, 2)])


# -- differential: lint fixtures ----------------------------------------------

def _fixture(name):
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    problem = problem_from_dict(
        json.loads((FIXTURES / f"{name}.problem.json").read_text()))
    return data, problem


FIXTURE_NAMES = sorted(p.name[:-len(".json")]
                       for p in FIXTURES.glob("*.json")
                       if not p.name.endswith(".problem.json"))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_verdicts_agree(name):
    data, problem = _fixture(name)
    if "layers" in data:
        program = program_from_dict(data, check=False)
        coupling = [(i, i + 1) for i in range(program.n_qubits - 1)]
        first = program.layers[0]

        def reference():
            report = reference_validate(
                first.circuit, coupling,
                first.input_mapping(program.n_qubits), problem.edges)
            reference_validate_program(program)
            return report

        def scan():
            return validate_lint_report(blocking_lint(program_contexts(
                program, coupling, problem.edges)))

        ref = verdict(reference)
        new = verdict(scan)
        accepted = isinstance(new, ValidationReport)
        # RL030: a discontinuous program cannot be built by the checked
        # constructor, and the reference never looked for it.
        assert_agrees("accept" if isinstance(ref, ValidationReport) else ref,
                      "accept" if accepted else new,
                      malformed=name == "rl030")
        return
    if "circuit" in data:
        circuit = circuit_from_dict(data["circuit"], check=False)
        mapping = mapping_from_dict(data["initial_mapping"])
    else:
        circuit = circuit_from_dict(data, check=False)
        mapping = Mapping.trivial(problem.n_vertices, circuit.n_qubits)
    coupling = [(i, i + 1) for i in range(circuit.n_qubits - 1)]
    args = (circuit, coupling, mapping, problem.edges)
    assert_agrees(verdict(reference_validate, *args),
                  verdict(validate_compiled, *args),
                  malformed=is_malformed(*args))


# -- differential: every method on every headline architecture ----------------

ARCHES = ("line", "grid", "sycamore", "heavyhex")
METHODS = sorted(name for name in available_methods()
                 if get_method(name).kind != "exact")


@lru_cache(maxsize=None)
def _compiled(method, arch, layers):
    coupling = architecture_for(arch, 8)
    problem = random_problem_graph(8, 0.35, seed=7)
    return get_method(method).compile(coupling, problem, layers=layers), \
        coupling, problem


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("arch", ARCHES)
@pytest.mark.parametrize("method", METHODS)
def test_method_verdicts_agree(method, arch, layers):
    result, coupling, problem = _compiled(method, arch, layers)

    def reference():
        report = reference_validate(result.circuit, coupling.edges,
                                    result.initial_mapping, problem.edges)
        if result.program is not None and result.program.p > 1:
            reference_validate_program(result.program)
        return report

    ref = verdict(reference)
    assert isinstance(ref, ValidationReport), ref
    assert result.validate(coupling, problem) == ref


# -- differential: mutated compiled circuits ----------------------------------

@lru_cache(maxsize=None)
def _base(index):
    arch, method, seed = (("grid", "hybrid", 1), ("heavyhex", "greedy", 2),
                          ("line", "sabre", 3))[index]
    coupling = architecture_for(arch, 9)
    problem = random_problem_graph(9, 0.4, seed=seed)
    result = get_method(method).compile(coupling, problem)
    return result, coupling, problem


def _mutate(draw, circuit, mapping, coupling, problem):
    ops = list(circuit.ops)
    n = circuit.n_qubits
    kind = draw(st.sampled_from(
        ["drop", "duplicate", "uncoupled", "tag", "mapping"]))
    if kind == "drop" and ops:
        del ops[draw(st.integers(0, len(ops) - 1))]
    elif kind == "duplicate":
        cphases = [op for op in ops if op.kind == CPHASE]
        if cphases:
            op = draw(st.sampled_from(cphases))
            ops.insert(draw(st.integers(0, len(ops))), op)
    elif kind == "uncoupled":
        hardware = canonical_edges(coupling.edges)
        free = [(u, v) for u in range(n) for v in range(u + 1, n)
                if (u, v) not in hardware]
        two = [i for i, op in enumerate(ops) if op.is_two_qubit]
        if free and two:
            i = draw(st.sampled_from(two))
            ops[i] = Op(ops[i].kind, draw(st.sampled_from(free)),
                        ops[i].param, ops[i].tag)
    elif kind == "tag":
        tagged = [i for i, op in enumerate(ops)
                  if op.kind == CPHASE and op.tag is not None]
        if tagged:
            i = draw(st.sampled_from(tagged))
            u, v = ops[i].tag
            tag = draw(st.sampled_from(
                [(v, u)] + sorted(problem.edges) + [(u, u + 1)]))
            ops[i] = Op(CPHASE, ops[i].qubits, ops[i].param, tag)
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
    return Circuit.from_ops_unchecked(n, ops), mapping


@st.composite
def mutated_cases(draw):
    result, coupling, problem = _base(draw(st.integers(0, 2)))
    circuit, mapping = result.circuit, result.initial_mapping
    for _ in range(draw(st.integers(1, 3))):
        circuit, mapping = _mutate(draw, circuit, mapping, coupling,
                                   problem)
    flags = {"require_all_edges": draw(st.booleans()),
             "allow_repeats": draw(st.booleans())}
    return circuit, coupling.edges, mapping, problem.edges, flags


@settings(max_examples=150, deadline=None)
@given(mutated_cases())
def test_mutated_circuit_verdicts_agree(case):
    circuit, coupling, mapping, problem, flags = case
    assert_agrees(
        verdict(reference_validate, circuit, coupling, mapping, problem,
                **flags),
        verdict(validate_compiled, circuit, coupling, mapping, problem,
                **flags))


def test_uncancelled_even_program_is_rejected_though_lint_only_warns():
    # Two forward copies of a triangle layer whose permutation is a
    # 3-cycle: each layer is correct and the provenance is faithful, but
    # the net permutation does not cancel.
    circuit = Circuit(3, [Op.cphase(0, 1), Op.swap(0, 1), Op.cphase(1, 2),
                          Op.swap(1, 2), Op.cphase(0, 1)])
    mapping = Mapping.trivial(3)
    layers, current = [], mapping
    for _ in range(2):
        out = layer_permutation(circuit, current)
        layers.append(ProgramLayer(
            role=ROLE_COST, circuit=circuit, param=None,
            input_log_to_phys=tuple(current.log_to_phys),
            output_log_to_phys=tuple(out.log_to_phys)))
        current = out
    result = CompiledResult(circuit=circuit, initial_mapping=mapping,
                            method="forward",
                            program=Program(3, layers, mapping))
    coupling, problem = line(3), clique(3)
    assert lint_result(result, coupling, problem).ok
    with pytest.raises(ValidationError, match="RL032"):
        result.validate(coupling, problem)


def test_mapping_narrower_than_the_register_is_a_typed_error():
    # Physical qubit 4 lies outside the 3-qubit mapping: a spare qubit.
    circuit = Circuit(5, [Op.cphase(3, 4)])
    args = (circuit, [(3, 4)], Mapping.trivial(3), [(0, 1)])
    with pytest.raises(IndexError):
        reference_validate(*args)
    with pytest.raises(ValidationError, match="RL010"):
        validate_compiled(*args)
