"""The lint engine: one tolerant scan, then every registered rule.

The engine makes **one** flat pass over the circuit building a
:class:`LintContext`: the per-op ASAP cycle and per-cycle activity, the
executed-edge index under the mapping tracked through every SWAP, the
SWAP count, and a list of the findings each rule needs (uncoupled
pairs, spare-qubit CPHASEs, tag disagreements, cancelling SWAP pairs).
The scan allocates nothing per op beyond a cycle number, so the rules
stay ``O(findings)`` over it and a whole lint run ``O(ops)``.  Semantic
validation (:mod:`repro.ir.validate`) is this scan plus the blocking
rules.

Unlike :class:`repro.ir.circuit.Circuit` construction, the scan is
*tolerant*: out-of-range or duplicated qubit indices (a corrupted or
hand-built document) mark the op as malformed and become diagnostics
instead of crashes, which is what lets the linter report on circuits the
strict constructors would refuse to build.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import (Dict, FrozenSet, Iterable, List, Mapping as TypingMapping,
                    Optional, Sequence, Set, Tuple)

from ..ir.circuit import Circuit
from ..ir.gates import CPHASE, SWAP, TWO_QUBIT_KINDS, Op, canonical_edges
from ..ir.mapping import Mapping
from ..ir.program import Program
from .diagnostics import Diagnostic, LintReport
from .rules import resolve_rules

Edge = Tuple[int, int]


class _EdgeSet(FrozenSet[Edge]):
    """An edge set this module canonicalised.  :func:`build_context`
    takes one as it is, so the layer scans of a program share the sets
    :func:`program_contexts` built instead of rebuilding them."""

    __slots__ = ()


def _canonical(edges: Iterable[Edge]) -> FrozenSet[Edge]:
    if isinstance(edges, _EdgeSet):
        return edges
    return _EdgeSet(canonical_edges(edges))


@dataclass(slots=True)
class OpView:
    """One op plus everything the scan learned about it."""

    index: int
    op: Op
    #: ASAP cycle the op lands in (unit-duration schedule, as
    #: :meth:`repro.ir.circuit.Circuit.depth` computes it).
    cycle: int
    #: Qubit indices outside ``[0, n_qubits)``.
    out_of_range: Tuple[int, ...] = ()
    #: Qubit indices the op names more than once.
    duplicated: Tuple[int, ...] = ()
    #: Logical occupants ``(lu, lv)`` of a CPHASE's physical qubits at
    #: the moment the gate runs; ``None`` entries are spare qubits.
    logical: Optional[Tuple[Optional[int], Optional[int]]] = None
    #: Canonical logical edge, when both occupants exist.
    logical_edge: Optional[Edge] = None

    @property
    def malformed(self) -> bool:
        return bool(self.out_of_range or self.duplicated)


@dataclass
class LintContext:
    """Precomputed circuit state shared by every rule."""

    circuit: Circuit
    hardware: FrozenSet[Edge]
    problem_edges: FrozenSet[Edge]
    initial_mapping: Mapping
    #: The layout after the circuit's SWAPs.
    final_mapping: Mapping
    allow_repeats: bool = False
    require_all_edges: bool = True
    #: Recorded metrics (``depth``/``cx``/``swaps``/``ops``) to cross-check
    #: against recomputation — the batch/serialisation accounting rule.
    expected: Optional[TypingMapping[str, float]] = None
    #: ASAP cycle of each op, in program order.
    cycles: List[int] = field(default_factory=list)
    #: The views of malformed ops (out-of-range or duplicated qubits).
    malformed: List[OpView] = field(default_factory=list)
    #: Problem-or-not logical edge -> op indices of the CPHASEs that
    #: implemented it, in program order.
    executed: Dict[Edge, List[int]] = field(default_factory=dict)
    #: Number of distinct in-range qubits busy in each cycle.
    cycle_active: List[int] = field(default_factory=list)
    #: Number of SWAP ops, malformed ones included.
    n_swap: int = 0
    #: Op indices of the well-formed two-qubit-kind ops on a physical
    #: pair the coupling graph lacks (RL001).
    uncoupled: List[int] = field(default_factory=list)
    #: ``(op index, lu, lv)`` of each CPHASE touching a physical qubit
    #: that holds no logical qubit (RL010).
    spare: List[Tuple[int, Optional[int], Optional[int]]] = field(
        default_factory=list)
    #: ``(op index, logical edge)`` of each CPHASE whose tag names
    #: another logical pair than the tracked one (RL014).
    tag_mismatches: List[Tuple[int, Edge]] = field(default_factory=list)
    #: ``(op index, earlier op index)`` of each SWAP whose pair's last
    #: op was a SWAP on the same pair (RL020).
    cancelling: List[Tuple[int, int]] = field(default_factory=list)
    #: Set by :func:`program_contexts`: the layered program being linted
    #: and the index of the layer this context covers.  Plain
    #: single-circuit runs leave both ``None``, which is what keeps the
    #: RL03x program rules silent for them.
    program: Optional[Program] = None
    layer_index: Optional[int] = None

    @property
    def n_cycles(self) -> int:
        return len(self.cycle_active)

    @property
    def has_malformed(self) -> bool:
        return bool(self.malformed)

    def missing_edges(self) -> List[Edge]:
        """The problem edges no CPHASE executed, sorted."""
        return sorted(self.problem_edges - self.executed.keys())

    @cached_property
    def views(self) -> List[OpView]:
        """One :class:`OpView` per op, rebuilt on first read by replaying
        the mapping from ``initial_mapping``: an inspection aid, which
        no rule reads."""
        n_qubits = self.circuit.n_qubits
        mapping = self.initial_mapping.copy()
        phys_to_log = mapping.phys_to_log
        phys_to_log.extend([None] * (n_qubits - len(phys_to_log)))
        malformed = {view.index: view for view in self.malformed}
        views: List[OpView] = []
        for index, op in enumerate(self.circuit.ops):
            if index in malformed:
                views.append(malformed[index])
                continue
            view = OpView(index, op, self.cycles[index])
            if len(op.qubits) == 2:
                u, v = op.qubits
                if op.kind == CPHASE:
                    lu, lv = phys_to_log[u], phys_to_log[v]
                    view.logical = (lu, lv)
                    if lu is not None and lv is not None:
                        view.logical_edge = (lu, lv) if lu <= lv else (lv, lu)
                elif op.kind == SWAP:
                    mapping.swap_physical(u, v)
            views.append(view)
        return views


def build_context(
    circuit: Circuit,
    coupling_edges: Iterable[Edge],
    initial_mapping: Mapping,
    problem_edges: Iterable[Edge],
    allow_repeats: bool = False,
    require_all_edges: bool = True,
    expected: Optional[TypingMapping[str, float]] = None,
) -> LintContext:
    """One tolerant scan of ``circuit`` into a :class:`LintContext`."""
    mapping = initial_mapping.copy()
    hardware = _canonical(coupling_edges)
    context = LintContext(
        circuit=circuit,
        hardware=hardware,
        problem_edges=_canonical(problem_edges),
        initial_mapping=initial_mapping,
        final_mapping=mapping,
        allow_repeats=allow_repeats,
        require_all_edges=require_all_edges,
        expected=expected,
    )
    ops = circuit.ops
    n_qubits = circuit.n_qubits
    log_to_phys = mapping.log_to_phys
    phys_to_log = mapping.phys_to_log
    # Physical qubits the mapping does not cover hold no logical qubit.
    phys_to_log.extend([None] * (n_qubits - len(phys_to_log)))
    # Coupled pairs as ``u * n_qubits + v`` in both orientations; pairs
    # outside the register never match a well-formed op.
    coupled: Set[int] = set()
    for u, v in hardware:
        if 0 <= u < n_qubits and 0 <= v < n_qubits:
            coupled.add(u * n_qubits + v)
            coupled.add(v * n_qubits + u)
    # ASAP bookkeeping: in-range qubits in a list, the rest (only ever
    # named by malformed ops) in a dict; ``depth`` is
    # ``len(cycle_active)``.  ``swap_at[q]`` is the index of the latest
    # well-formed SWAP on in-range qubit ``q``: still the latest op on
    # ``q`` while ``busy[q]`` is that SWAP's cycle plus one, since every
    # op on ``q`` raises ``busy[q]``.
    busy = [0] * n_qubits
    busy_out: Dict[int, int] = {}
    swap_at = [-1] * n_qubits
    depth = 0
    cycles = context.cycles
    add_cycle = cycles.append
    cycle_active = context.cycle_active
    executed = context.executed
    uncoupled = context.uncoupled
    n_swap = 0

    for index, op in enumerate(ops):
        qubits = op.qubits
        if len(qubits) == 2:  # fast path: a well-formed two-qubit op
            u, v = qubits
            if u != v and 0 <= u < n_qubits and 0 <= v < n_qubits:
                bu = busy[u]
                bv = busy[v]
                start = bu if bu >= bv else bv
                busy[u] = busy[v] = start + 1
                add_cycle(start)
                if start == depth:
                    cycle_active.append(2)
                    depth += 1
                else:
                    cycle_active[start] += 2
                kind = op.kind
                if kind == CPHASE:
                    if u * n_qubits + v not in coupled:
                        uncoupled.append(index)
                    lu = phys_to_log[u]
                    lv = phys_to_log[v]
                    if lu is None or lv is None:
                        context.spare.append((index, lu, lv))
                    else:
                        edge = (lu, lv) if lu <= lv else (lv, lu)
                        indices = executed.get(edge)
                        if indices is None:
                            executed[edge] = [index]
                        else:
                            indices.append(index)
                        tag = op.tag
                        if tag is not None and tag != edge:
                            a, b = tag
                            if (a, b) != edge and (b, a) != edge:
                                context.tag_mismatches.append((index, edge))
                elif kind == SWAP:
                    n_swap += 1
                    if u * n_qubits + v not in coupled:
                        uncoupled.append(index)
                    prev = swap_at[u]
                    if (prev >= 0 and prev == swap_at[v] and bu == bv
                            and bu == cycles[prev] + 1):
                        context.cancelling.append((index, prev))
                    swap_at[u] = swap_at[v] = index
                    lu = phys_to_log[u]
                    lv = phys_to_log[v]
                    phys_to_log[u] = lv
                    phys_to_log[v] = lu
                    if lu is not None:
                        log_to_phys[lu] = v
                    if lv is not None:
                        log_to_phys[lv] = u
                elif (kind in TWO_QUBIT_KINDS
                      and u * n_qubits + v not in coupled):
                    uncoupled.append(index)
                continue
        elif len(qubits) == 1:  # fast path: a well-formed one-qubit op
            q = qubits[0]
            if 0 <= q < n_qubits:
                start = busy[q]
                busy[q] = start + 1
                add_cycle(start)
                if start == depth:
                    cycle_active.append(1)
                    depth += 1
                else:
                    cycle_active[start] += 1
                if op.kind == SWAP:
                    n_swap += 1
                continue

        if op.kind == SWAP:
            n_swap += 1
        # Any other op never moves the mapping or runs a problem gate.
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
        add_cycle(start)
        if start == depth:
            cycle_active.append(0)
            depth += 1
        cycle_active[start] += len(in_range)
        if out_of_range or duplicated:
            context.malformed.append(OpView(
                index, op, start, out_of_range, tuple(duplicated)))
    context.n_swap = n_swap
    return context


def program_contexts(
    program: Program,
    coupling_edges: Iterable[Edge],
    problem_edges: Iterable[Edge],
    allow_repeats: bool = False,
) -> List[LintContext]:
    """One context per program layer, scanned from the layer's recorded
    input mapping; mixer walls are exempt from the all-edges requirement.
    Layers sharing a circuit object and input mapping (the cost layers of
    a cancelled program) share one scan."""
    hardware = _canonical(coupling_edges)
    problem = _canonical(problem_edges)
    scanned: Dict[Tuple[int, Tuple[int, ...], bool], LintContext] = {}
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


def build_contexts(
    circuit: Circuit,
    coupling_edges: Iterable[Edge],
    initial_mapping: Mapping,
    problem_edges: Iterable[Edge],
    program: Optional[Program] = None,
    allow_repeats: bool = False,
    require_all_edges: bool = True,
    expected: Optional[TypingMapping[str, float]] = None,
) -> List[LintContext]:
    """The scan of one compiled result: per layer when it carries a
    multi-layer program (``p > 1``; a flat scan would trip RL012 on every
    repeated cost layer), else the cost-layer circuit alone, to which
    ``require_all_edges`` and ``expected`` apply."""
    if program is not None and program.p > 1:
        return program_contexts(program, coupling_edges, problem_edges,
                                allow_repeats=allow_repeats)
    return [build_context(circuit, coupling_edges, initial_mapping,
                          problem_edges, allow_repeats=allow_repeats,
                          require_all_edges=require_all_edges,
                          expected=expected)]


def run_rules(contexts: Sequence[LintContext],
              select: Optional[Sequence[str]] = None,
              ignore: Optional[Sequence[str]] = None) -> LintReport:
    """Every registered (or selected) rule over every context, findings
    sorted; layer contexts stamp their layer index on what they find."""
    rules = resolve_rules(select=select, ignore=ignore)
    diagnostics: List[Diagnostic] = []
    for context in contexts:
        layer = context.layer_index
        for lint_rule in rules:
            for diagnostic in lint_rule.check(context):
                if layer is not None and diagnostic.layer is None:
                    # Rebuilt from its fields: ``dataclasses.replace``
                    # costs several times more, and one layer can
                    # report hundreds of findings.
                    diagnostic = Diagnostic(**{**vars(diagnostic),
                                               "layer": layer})
                diagnostics.append(diagnostic)
    diagnostics.sort(key=Diagnostic.sort_key)
    return LintReport(diagnostics=diagnostics, contexts=list(contexts))


def lint_circuit(
    circuit: Circuit,
    coupling_edges: Iterable[Edge],
    initial_mapping: Mapping,
    problem_edges: Iterable[Edge],
    allow_repeats: bool = False,
    require_all_edges: bool = True,
    expected: Optional[TypingMapping[str, float]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run every registered (or selected) rule and collect all findings.

    Parameters mirror :func:`repro.ir.validate.validate_compiled`, plus:

    expected:
        Recorded metrics (``depth``, ``cx``, ``swaps``, ``ops``) from a
        serialized result or batch record; rule RL021 cross-checks them
        against recomputation.
    select / ignore:
        Rule codes to run exclusively / to skip.  Unknown codes raise
        ``ValueError`` naming the registered set.
    """
    return run_rules([build_context(
        circuit, coupling_edges, initial_mapping, problem_edges,
        allow_repeats=allow_repeats, require_all_edges=require_all_edges,
        expected=expected)], select, ignore)


def lint_result(result: object, coupling: object, problem: object,
                select: Optional[Sequence[str]] = None,
                ignore: Optional[Sequence[str]] = None,
                **kwargs: object) -> LintReport:
    """Lint a :class:`repro.compiler.result.CompiledResult` over the scan
    of :func:`build_contexts`: per layer for a multi-layer program, else
    the historic flat-circuit lint byte for byte.  Keyword arguments are
    those of :func:`lint_circuit`; the circuit, initial mapping and
    program come from ``result``, the edges from ``coupling``/``problem``.
    """
    return run_rules(build_contexts(
        result.circuit,                      # type: ignore[attr-defined]
        coupling.edges,                      # type: ignore[attr-defined]
        result.initial_mapping,              # type: ignore[attr-defined]
        problem.edges,                       # type: ignore[attr-defined]
        program=getattr(result, "program", None),
        **kwargs), select, ignore)           # type: ignore[arg-type]
