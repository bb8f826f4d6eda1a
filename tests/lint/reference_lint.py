"""The per-op-view lint engine the flat scan must reproduce.

A frozen copy of the lint engine as it was when ``build_context`` built
one ``OpView`` per op and every rule walked those views: the scan, the
per-layer contexts, and the bodies of rules RL001-RL032.  The
differential test in ``test_reference_lint.py`` asserts that
``render_json`` of the production report equals ``render_json`` of
this one, diagnostics included, on compiled circuits and on mutated
ones.  RL021 recomputes depth, fused CX and SWAP count with the frozen
walks of ``tests/ir/reference_metrics.py``.
"""

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.ir.gates import CPHASE, SWAP, canonical_edge, canonical_edges
from repro.ir.mapping import Mapping
from repro.lint.diagnostics import Diagnostic, LintReport
from tests.ir.reference_metrics import (reference_count_cx, reference_depth,
                                        reference_swap_count)

Edge = Tuple[int, int]

MISSING_EDGE_CAP = 10
IDLE_MIN_CYCLES = 8
IDLE_FRACTION_THRESHOLD = 0.85


@dataclass
class OpView:
    index: int
    op: object
    cycle: int
    out_of_range: Tuple[int, ...] = ()
    duplicated: Tuple[int, ...] = ()
    logical: Optional[Tuple[Optional[int], Optional[int]]] = None
    logical_edge: Optional[Edge] = None

    @property
    def malformed(self) -> bool:
        return bool(self.out_of_range or self.duplicated)


@dataclass
class Context:
    circuit: object
    hardware: FrozenSet[Edge]
    problem_edges: FrozenSet[Edge]
    initial_mapping: Mapping
    final_mapping: Mapping
    allow_repeats: bool = False
    require_all_edges: bool = True
    expected: Optional[dict] = None
    views: List[OpView] = field(default_factory=list)
    malformed: List[OpView] = field(default_factory=list)
    executed: Dict[Edge, List[int]] = field(default_factory=dict)
    pairs: set = field(default_factory=set)
    cycle_active: List[int] = field(default_factory=list)
    program: object = None
    layer_index: Optional[int] = None

    @property
    def n_cycles(self) -> int:
        return len(self.cycle_active)

    @property
    def has_malformed(self) -> bool:
        return bool(self.malformed)

    def missing_edges(self) -> List[Edge]:
        return sorted(self.problem_edges - self.executed.keys())


def build_context(circuit, coupling_edges, initial_mapping, problem_edges,
                  allow_repeats=False, require_all_edges=True,
                  expected=None) -> Context:
    mapping = initial_mapping.copy()
    context = Context(
        circuit=circuit, hardware=canonical_edges(coupling_edges),
        problem_edges=canonical_edges(problem_edges),
        initial_mapping=initial_mapping, final_mapping=mapping,
        allow_repeats=allow_repeats, require_all_edges=require_all_edges,
        expected=expected)
    n_qubits = circuit.n_qubits
    phys_to_log = mapping.phys_to_log
    phys_to_log.extend([None] * (n_qubits - len(phys_to_log)))
    busy = [0] * n_qubits
    busy_out: Dict[int, int] = {}
    cycle_active = context.cycle_active
    executed = context.executed
    add_pair = context.pairs.add
    add_view = context.views.append

    for index, op in enumerate(circuit.ops):
        qubits = op.qubits
        if len(qubits) == 2:
            u, v = qubits
            if u != v and 0 <= u < n_qubits and 0 <= v < n_qubits:
                start = busy[u] if busy[u] >= busy[v] else busy[v]
                busy[u] = busy[v] = start + 1
                if start == len(cycle_active):
                    cycle_active.append(2)
                else:
                    cycle_active[start] += 2
                add_pair((u, v) if u < v else (v, u))
                if op.kind == CPHASE:
                    lu, lv = phys_to_log[u], phys_to_log[v]
                    edge = None
                    if lu is not None and lv is not None:
                        edge = (lu, lv) if lu <= lv else (lv, lu)
                        executed.setdefault(edge, []).append(index)
                    add_view(OpView(index, op, start, (), (), (lu, lv), edge))
                    continue
                if op.kind == SWAP:
                    mapping.swap_physical(u, v)
                add_view(OpView(index, op, start))
                continue

        seen: List[int] = []
        duplicated: List[int] = []
        for q in qubits:
            (duplicated if q in seen else seen).append(q)
        in_range = [q for q in seen if 0 <= q < n_qubits]
        out_of_range = tuple(q for q in seen if not 0 <= q < n_qubits)
        start = max([busy[q] for q in in_range]
                    + [busy_out.get(q, 0) for q in out_of_range], default=0)
        for q in in_range:
            busy[q] = start + 1
        for q in out_of_range:
            busy_out[q] = start + 1
        if start == len(cycle_active):
            cycle_active.append(0)
        cycle_active[start] += len(in_range)
        view = OpView(index, op, start, out_of_range, tuple(duplicated))
        add_view(view)
        if view.malformed:
            context.malformed.append(view)
    return context


def program_contexts(program, coupling_edges, problem_edges,
                     allow_repeats=False) -> List[Context]:
    hardware = canonical_edges(coupling_edges)
    problem = canonical_edges(problem_edges)
    scanned: Dict[tuple, Context] = {}
    contexts = []
    for index, layer in enumerate(program.layers):
        key = (id(layer.circuit), layer.input_log_to_phys, layer.is_cost)
        if key not in scanned:
            scanned[key] = build_context(
                layer.circuit, hardware,
                layer.input_mapping(program.n_qubits), problem,
                allow_repeats=allow_repeats, require_all_edges=layer.is_cost)
        contexts.append(replace(scanned[key], program=program,
                                layer_index=index))
    return contexts


def build_contexts(circuit, coupling_edges, initial_mapping, problem_edges,
                   program=None, allow_repeats=False, require_all_edges=True,
                   expected=None) -> List[Context]:
    if program is not None and program.p > 1:
        return program_contexts(program, coupling_edges, problem_edges,
                                allow_repeats=allow_repeats)
    return [build_context(circuit, coupling_edges, initial_mapping,
                          problem_edges, allow_repeats=allow_repeats,
                          require_all_edges=require_all_edges,
                          expected=expected)]


# -- the rules ----------------------------------------------------------------

_RULES: List[Tuple[str, str, str, object]] = []


def _rule(code: str, name: str, severity: str):
    def wrap(fn):
        _RULES.append((code, name, severity, fn))
        return fn
    return wrap


def _diagnostic(code: str, message: str, **kwargs) -> Diagnostic:
    name, severity = next((n, s) for c, n, s, _ in _RULES if c == code)
    return Diagnostic(code=code, severity=severity, rule=name,
                      message=message, **kwargs)


@_rule("RL001", "uncoupled-pair", "error")
def check_uncoupled_pair(context: Context) -> Iterator[Diagnostic]:
    if context.pairs <= context.hardware:
        return
    for view in context.views:
        op = view.op
        if not op.is_two_qubit or view.malformed or len(op.qubits) != 2:
            continue
        pair = canonical_edge(*op.qubits)
        if pair not in context.hardware:
            yield _diagnostic(
                "RL001", f"{op.kind} acts on uncoupled physical pair {pair}",
                op_index=view.index, cycle=view.cycle, qubits=pair,
                hint="route the pair adjacent with SWAPs along coupled "
                     "edges, or fix the coupling graph passed to the "
                     "linter")


@_rule("RL002", "cycle-qubit-conflict", "error")
def check_cycle_conflict(context: Context) -> Iterator[Diagnostic]:
    for view in context.malformed:
        for q in view.duplicated:
            yield _diagnostic(
                "RL002", f"qubit {q} used twice in cycle {view.cycle} by "
                f"{view.op.kind} on {view.op.qubits}",
                op_index=view.index, cycle=view.cycle,
                qubits=tuple(view.op.qubits),
                hint="an op cannot touch the same qubit twice; the "
                     "producing compiler emitted a corrupt gate")


@_rule("RL003", "qubit-out-of-range", "error")
def check_qubit_range(context: Context) -> Iterator[Diagnostic]:
    width = context.circuit.n_qubits
    for view in context.malformed:
        for q in view.out_of_range:
            yield _diagnostic(
                "RL003",
                f"qubit {q} out of range for the {width}-qubit register",
                op_index=view.index, cycle=view.cycle,
                qubits=tuple(view.op.qubits),
                hint=f"valid physical indices are 0..{width - 1}")


@_rule("RL010", "spare-qubit-gate", "error")
def check_spare_qubit(context: Context) -> Iterator[Diagnostic]:
    for view in context.views:
        if view.op.kind != CPHASE or view.logical is None:
            continue
        lu, lv = view.logical
        if lu is None or lv is None:
            spares = tuple(q for q, occupant
                           in zip(view.op.qubits, view.logical)
                           if occupant is None)
            yield _diagnostic(
                "RL010",
                f"cphase touches spare physical qubit(s) {spares} "
                f"(logical occupants: {lu}, {lv})",
                op_index=view.index, cycle=view.cycle,
                qubits=tuple(view.op.qubits),
                hint="problem gates must act on two mapped qubits; "
                     "check the initial mapping and the SWAP history")


@_rule("RL011", "non-problem-edge", "error")
def check_non_problem_edge(context: Context) -> Iterator[Diagnostic]:
    for view in context.views:
        if view.logical_edge is None:
            continue
        if view.logical_edge not in context.problem_edges:
            yield _diagnostic(
                "RL011", f"cphase implements {view.logical_edge}, which is "
                f"not a problem edge",
                op_index=view.index, cycle=view.cycle,
                qubits=tuple(view.op.qubits), logical=view.logical_edge,
                hint="the compiler scheduled a gate the program never "
                     "asked for; the mapping trace and the gate list "
                     "disagree")


@_rule("RL012", "repeated-edge", "error")
def check_repeated_edge(context: Context) -> Iterator[Diagnostic]:
    if context.allow_repeats:
        return
    repeated = sorted(edge for edge, indices in context.executed.items()
                      if len(indices) > 1 and edge in context.problem_edges)
    for edge in repeated:
        indices = context.executed[edge]
        first = indices[0]
        for index in indices[1:]:
            view = context.views[index]
            yield _diagnostic(
                "RL012", f"cphase repeats problem edge {edge} (first "
                f"executed at op#{first})",
                op_index=index, cycle=view.cycle,
                qubits=tuple(view.op.qubits), logical=edge,
                hint="each problem edge must execute exactly once; pass "
                     "allow_repeats=True only for patterns that revisit "
                     "pairs deliberately")


@_rule("RL013", "missing-edge", "error")
def check_missing_edges(context: Context) -> Iterator[Diagnostic]:
    if not context.require_all_edges:
        return
    missing = context.missing_edges()
    for edge in missing[:MISSING_EDGE_CAP]:
        yield _diagnostic(
            "RL013", f"problem edge {edge} never executed",
            logical=edge,
            hint="the compiler dropped this gate; the circuit does not "
                 "implement the program")
    if len(missing) > MISSING_EDGE_CAP:
        rest = len(missing) - MISSING_EDGE_CAP
        yield _diagnostic(
            "RL013", f"...and {rest} more problem edges never executed "
            f"({len(missing)} missing in total)",
            hint="re-run with --select RL013 after fixing the first "
                 "batch to see the remainder")


@_rule("RL014", "tag-mapping-disagreement", "error")
def check_tag_mismatch(context: Context) -> Iterator[Diagnostic]:
    for view in context.views:
        op = view.op
        if (op.kind != CPHASE or op.tag is None
                or view.logical_edge is None):
            continue
        tagged = canonical_edge(*op.tag)
        if tagged != view.logical_edge:
            yield _diagnostic(
                "RL014", f"cphase tag {tagged} disagrees with tracked "
                f"logical pair {view.logical_edge}",
                op_index=view.index, cycle=view.cycle,
                qubits=tuple(op.qubits), logical=view.logical_edge,
                hint="either the tag or the SWAP bookkeeping of the "
                     "producing compiler is wrong")


@_rule("RL020", "cancelling-swaps", "warning")
def check_cancelling_swaps(context: Context) -> Iterator[Diagnostic]:
    last_touch: Dict[int, int] = {}
    for view in context.views:
        op = view.op
        if op.kind == SWAP and not view.malformed and len(op.qubits) == 2:
            u, v = op.qubits
            prev_u = last_touch.get(u)
            prev_v = last_touch.get(v)
            if prev_u is not None and prev_u == prev_v:
                prev = context.views[prev_u].op
                if (prev.kind == SWAP
                        and canonical_edge(*prev.qubits)
                        == canonical_edge(u, v)):
                    yield _diagnostic(
                        "RL020", f"swap on {canonical_edge(u, v)} "
                        f"immediately cancels the swap at op#{prev_u}",
                        op_index=view.index, cycle=view.cycle,
                        qubits=tuple(op.qubits),
                        hint="delete both SWAPs; they compose to the "
                             "identity and waste two cycles")
        for q in op.qubits:
            last_touch[q] = view.index


@_rule("RL021", "metric-mismatch", "warning")
def check_metric_mismatch(context: Context) -> Iterator[Diagnostic]:
    if not context.expected or context.has_malformed:
        return
    circuit = context.circuit
    recomputed = {
        "depth": reference_depth(circuit),
        "swaps": reference_swap_count(circuit),
        "ops": len(circuit),
    }
    if "cx" in context.expected:
        recomputed["cx"] = reference_count_cx(circuit, unify=True)
    for key in sorted(recomputed):
        if key not in context.expected:
            continue
        recorded = context.expected[key]
        if recorded != recomputed[key]:
            yield _diagnostic(
                "RL021", f"recorded {key}={recorded} but the circuit "
                f"recomputes to {key}={recomputed[key]}",
                hint="the record and the circuit drifted apart; "
                     "regenerate the serialized result "
                     "(analysis.metrics.result_metrics is the ground "
                     "truth)")


@_rule("RL022", "idle-heavy-schedule", "info")
def check_idle_heavy(context: Context) -> Iterator[Diagnostic]:
    if context.has_malformed or context.n_cycles < IDLE_MIN_CYCLES:
        return
    n_mapped = min(context.initial_mapping.n_logical,
                   context.circuit.n_qubits)
    if n_mapped == 0:
        return
    idle_fractions = [max(0.0, 1.0 - active / n_mapped)
                      for active in context.cycle_active]
    mean_idle = sum(idle_fractions) / len(idle_fractions)
    if mean_idle > IDLE_FRACTION_THRESHOLD:
        worst = sum(1 for f in idle_fractions
                    if f > IDLE_FRACTION_THRESHOLD)
        yield _diagnostic(
            "RL022", f"{mean_idle:.0%} of mapped-qubit cycles are idle on "
            f"average ({worst}/{context.n_cycles} cycles exceed "
            f"{IDLE_FRACTION_THRESHOLD:.0%} idle)",
            hint="the schedule serialises work that could overlap; "
                 "compare against the hybrid preset's depth")


@_rule("RL030", "layer-mapping-discontinuity", "error")
def check_layer_continuity(context: Context) -> Iterator[Diagnostic]:
    program = context.program
    index = context.layer_index
    if program is None or index is None or index == 0:
        return
    layer = program.layers[index]
    previous = program.layers[index - 1]
    if layer.input_log_to_phys != previous.output_log_to_phys:
        yield _diagnostic(
            "RL030", f"layer {index} ({layer.role}) starts from mapping "
            f"{list(layer.input_log_to_phys)} but layer {index - 1} "
            f"({previous.role}) ends at "
            f"{list(previous.output_log_to_phys)}",
            hint="layers must be mapping-continuous; the program was "
                 "assembled (or edited) inconsistently")


@_rule("RL031", "layer-permutation-drift", "error")
def check_layer_permutation(context: Context) -> Iterator[Diagnostic]:
    program = context.program
    index = context.layer_index
    if program is None or index is None or context.has_malformed:
        return
    layer = program.layers[index]
    scanned = context.final_mapping
    if tuple(scanned.log_to_phys) != layer.output_log_to_phys:
        yield _diagnostic(
            "RL031", f"layer {index} ({layer.role}) records output mapping "
            f"{list(layer.output_log_to_phys)} but its SWAPs produce "
            f"{list(scanned.log_to_phys)}",
            hint="the recorded mapping provenance and the circuit "
                 "drifted apart; reassemble the program")


@_rule("RL032", "uncancelled-permutation", "warning")
def check_uncancelled(context: Context) -> Iterator[Diagnostic]:
    program = context.program
    index = context.layer_index
    if program is None or index is None:
        return
    if index != len(program.layers) - 1:
        return
    if program.p % 2 == 0 and not program.net_permutation_is_identity:
        yield _diagnostic(
            "RL032", f"{program.p} cost layers end at "
            f"{list(program.final_log_to_phys)} instead of the initial "
            f"placement {list(program.initial_mapping.log_to_phys)}",
            hint="alternate each cost layer with its op-reversal "
                 "(repro.ir.reversed_layer) so the permutations cancel "
                 "pairwise and measurement needs no remapping")


def run_rules(contexts: List[Context]) -> LintReport:
    diagnostics: List[Diagnostic] = []
    for context in contexts:
        layer = context.layer_index
        for _, _, _, check in sorted(_RULES, key=lambda r: r[0]):
            for diagnostic in check(context):
                if layer is not None and diagnostic.layer is None:
                    diagnostic = replace(diagnostic, layer=layer)
                diagnostics.append(diagnostic)
    diagnostics.sort(key=Diagnostic.sort_key)
    return LintReport(diagnostics=diagnostics)


def reference_lint_circuit(circuit, coupling_edges, initial_mapping,
                           problem_edges, allow_repeats=False,
                           require_all_edges=True,
                           expected=None) -> LintReport:
    return run_rules([build_context(
        circuit, coupling_edges, initial_mapping, problem_edges,
        allow_repeats=allow_repeats, require_all_edges=require_all_edges,
        expected=expected)])


def reference_lint_result(result, coupling, problem,
                          **kwargs) -> LintReport:
    return run_rules(build_contexts(
        result.circuit, coupling.edges, result.initial_mapping,
        problem.edges, program=getattr(result, "program", None), **kwargs))
