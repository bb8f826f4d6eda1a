"""The lint rule catalogue and registry.

Rules are grouped by code range (see ``docs/linting.md`` for the full
catalogue with examples):

* **RL00x — hardware conformance** (error): the circuit must be runnable
  on the coupling graph at all.
* **RL01x — semantic integrity** (error): tracking the logical mapping
  through every SWAP, the circuit must implement exactly the problem.
* **RL02x — quality** (warning/info): legal but wasteful or inconsistent
  schedules.

:data:`BLOCKING_RULES` are the rules validation (:mod:`repro.ir.validate`)
raises on.

Each rule is a pure function over the precomputed
:class:`~repro.lint.engine.LintContext`: it reads the scan's flat lists
(per-op cycles, the executed-edge index, the per-rule finding lists) and
builds a :class:`Diagnostic` only for a finding.  Registering one is a
:func:`rule` decoration, after which it participates in
:func:`~repro.lint.engine.lint_circuit`, the batch engine's
``lint=True`` and the ``repro lint`` CLI with no further wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List
from typing import Optional, Sequence, Tuple

from ..ir.decompose import count_cx
from ..ir.gates import canonical_edge
from .diagnostics import ERROR, INFO, SEVERITIES, WARNING, Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import LintContext

CheckFn = Callable[["LintContext"], Iterator[Diagnostic]]

#: RL013 emits one diagnostic per missing edge up to this cap, then a
#: single summary diagnostic for the remainder.
MISSING_EDGE_CAP = 10
#: RL022 stays silent below this depth (short circuits are never
#: meaningfully "idle-heavy").
IDLE_MIN_CYCLES = 8
#: RL022 fires when the mean idle fraction of mapped qubits exceeds this.
IDLE_FRACTION_THRESHOLD = 0.85

#: The one definition of a correct circuit: every error-severity rule plus
#: RL032, which lint only warns about but validation rejects.
BLOCKING_RULES: Tuple[str, ...] = (
    "RL001", "RL002", "RL003", "RL010", "RL011", "RL012", "RL013", "RL014",
    "RL030", "RL031", "RL032")


@dataclass(frozen=True)
class LintRule:
    """One registered diagnostic rule."""

    code: str
    name: str
    severity: str
    description: str
    check: CheckFn

    def diagnostic(self, message: str, **kwargs: object) -> Diagnostic:
        """A :class:`Diagnostic` pre-stamped with this rule's identity."""
        return Diagnostic(code=self.code, severity=self.severity,
                          rule=self.name, message=message,
                          **kwargs)  # type: ignore[arg-type]


_RULES: Dict[str, LintRule] = {}


def register_rule(rule_obj: LintRule) -> LintRule:
    """Register (or deliberately replace) a rule under its code."""
    if rule_obj.severity not in SEVERITIES:
        raise ValueError(
            f"rule {rule_obj.code} has unknown severity "
            f"{rule_obj.severity!r}; expected one of {SEVERITIES}")
    _RULES[rule_obj.code] = rule_obj
    return rule_obj


def rule(code: str, name: str, severity: str,
         description: str) -> Callable[[CheckFn], CheckFn]:
    """Decorator: register ``fn`` as the check of a new :class:`LintRule`,
    reachable as ``fn.rule`` so rule bodies can stamp diagnostics."""
    def wrap(fn: CheckFn) -> CheckFn:
        rule_obj = LintRule(code=code, name=name, severity=severity,
                            description=description, check=fn)
        register_rule(rule_obj)
        fn.rule = rule_obj  # type: ignore[attr-defined]
        return fn
    return wrap


def get_rule(code: str) -> LintRule:
    try:
        return _RULES[code]
    except KeyError:
        raise ValueError(
            f"unknown lint rule {code!r}; registered rules: "
            f"{', '.join(sorted(_RULES))}") from None


def all_rules() -> Tuple[LintRule, ...]:
    """Every registered rule, sorted by code."""
    return tuple(_RULES[code] for code in sorted(_RULES))


def rule_table() -> Dict[str, Tuple[str, str, str]]:
    """``{code: (name, severity, description)}`` for docs and ``--help``."""
    return {r.code: (r.name, r.severity, r.description)
            for r in all_rules()}


def resolve_rules(select: Optional[Sequence[str]] = None,
                  ignore: Optional[Sequence[str]] = None,
                  ) -> Tuple[LintRule, ...]:
    """The rule set to run, honouring ``select``/``ignore`` code lists."""
    for code in list(select or ()) + list(ignore or ()):
        get_rule(code)  # raise early on unknown codes
    chosen = all_rules()
    if select:
        wanted = set(select)
        chosen = tuple(r for r in chosen if r.code in wanted)
    if ignore:
        unwanted = set(ignore)
        chosen = tuple(r for r in chosen if r.code not in unwanted)
    return chosen


# ---------------------------------------------------------------------------
# RL00x — hardware conformance
# ---------------------------------------------------------------------------

@rule("RL001", "uncoupled-pair", ERROR,
      "a two-qubit op acts on a physical pair the coupling graph lacks")
def check_uncoupled_pair(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_uncoupled_pair.rule  # type: ignore[attr-defined]
    ops = context.circuit.ops
    for index in context.uncoupled:
        op = ops[index]
        pair = canonical_edge(*op.qubits)
        yield this.diagnostic(
            f"{op.kind} acts on uncoupled physical pair {pair}",
            op_index=index, cycle=context.cycles[index], qubits=pair,
            hint="route the pair adjacent with SWAPs along coupled "
                 "edges, or fix the coupling graph passed to the "
                 "linter")


@rule("RL002", "cycle-qubit-conflict", ERROR,
      "a qubit is used more than once in the same cycle")
def check_cycle_conflict(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_cycle_conflict.rule  # type: ignore[attr-defined]
    for view in context.malformed:
        for q in view.duplicated:
            yield this.diagnostic(
                f"qubit {q} used twice in cycle {view.cycle} by "
                f"{view.op.kind} on {view.op.qubits}",
                op_index=view.index, cycle=view.cycle,
                qubits=tuple(view.op.qubits),
                hint="an op cannot touch the same qubit twice; the "
                     "producing compiler emitted a corrupt gate")


@rule("RL003", "qubit-out-of-range", ERROR,
      "an op names a qubit outside the circuit's register")
def check_qubit_range(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_qubit_range.rule  # type: ignore[attr-defined]
    width = context.circuit.n_qubits
    for view in context.malformed:
        for q in view.out_of_range:
            yield this.diagnostic(
                f"qubit {q} out of range for the {width}-qubit register",
                op_index=view.index, cycle=view.cycle,
                qubits=tuple(view.op.qubits),
                hint=f"valid physical indices are 0..{width - 1}")


# ---------------------------------------------------------------------------
# RL01x — semantic integrity
# ---------------------------------------------------------------------------

@rule("RL010", "spare-qubit-gate", ERROR,
      "a CPHASE touches a physical qubit holding no logical qubit")
def check_spare_qubit(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_spare_qubit.rule  # type: ignore[attr-defined]
    ops = context.circuit.ops
    for index, lu, lv in context.spare:
        qubits = tuple(ops[index].qubits)
        spares = tuple(q for q, occupant in zip(qubits, (lu, lv))
                       if occupant is None)
        yield this.diagnostic(
            f"cphase touches spare physical qubit(s) {spares} "
            f"(logical occupants: {lu}, {lv})",
            op_index=index, cycle=context.cycles[index], qubits=qubits,
            hint="problem gates must act on two mapped qubits; "
                 "check the initial mapping and the SWAP history")


@rule("RL011", "non-problem-edge", ERROR,
      "a CPHASE implements a logical pair that is not a problem edge")
def check_non_problem_edge(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_non_problem_edge.rule  # type: ignore[attr-defined]
    ops = context.circuit.ops
    for edge in context.executed.keys() - context.problem_edges:
        for index in context.executed[edge]:
            yield this.diagnostic(
                f"cphase implements {edge}, which is not a problem edge",
                op_index=index, cycle=context.cycles[index],
                qubits=tuple(ops[index].qubits), logical=edge,
                hint="the compiler scheduled a gate the program never "
                     "asked for; the mapping trace and the gate list "
                     "disagree")


@rule("RL012", "repeated-edge", ERROR,
      "a problem edge receives more than one CPHASE")
def check_repeated_edge(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_repeated_edge.rule  # type: ignore[attr-defined]
    executed = context.executed
    if context.allow_repeats or sum(map(len, executed.values())) == len(
            executed):  # no edge ran twice
        return
    repeated = sorted(edge for edge, indices in context.executed.items()
                      if len(indices) > 1 and edge in context.problem_edges)
    for edge in repeated:
        indices = context.executed[edge]
        first = indices[0]
        for index in indices[1:]:
            yield this.diagnostic(
                f"cphase repeats problem edge {edge} (first executed at "
                f"op#{first})",
                op_index=index, cycle=context.cycles[index],
                qubits=tuple(context.circuit.ops[index].qubits),
                logical=edge,
                hint="each problem edge must execute exactly once; pass "
                     "allow_repeats=True only for patterns that revisit "
                     "pairs deliberately")


@rule("RL013", "missing-edge", ERROR,
      "a problem edge is never executed by any CPHASE")
def check_missing_edges(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_missing_edges.rule  # type: ignore[attr-defined]
    if not context.require_all_edges:
        return
    missing = context.missing_edges()
    for edge in missing[:MISSING_EDGE_CAP]:
        yield this.diagnostic(
            f"problem edge {edge} never executed",
            logical=edge,
            hint="the compiler dropped this gate; the circuit does not "
                 "implement the program")
    if len(missing) > MISSING_EDGE_CAP:
        rest = len(missing) - MISSING_EDGE_CAP
        yield this.diagnostic(
            f"...and {rest} more problem edges never executed "
            f"({len(missing)} missing in total)",
            hint="re-run with --select RL013 after fixing the first "
                 "batch to see the remainder")


@rule("RL014", "tag-mapping-disagreement", ERROR,
      "a CPHASE's logical tag disagrees with the tracked mapping")
def check_tag_mismatch(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_tag_mismatch.rule  # type: ignore[attr-defined]
    ops = context.circuit.ops
    for index, edge in context.tag_mismatches:
        op = ops[index]
        assert op.tag is not None  # the scan lists tagged CPHASEs only
        tagged = canonical_edge(*op.tag)
        yield this.diagnostic(
            f"cphase tag {tagged} disagrees with tracked logical "
            f"pair {edge}",
            op_index=index, cycle=context.cycles[index],
            qubits=tuple(op.qubits), logical=edge,
            hint="either the tag or the SWAP bookkeeping of the "
                 "producing compiler is wrong")


# ---------------------------------------------------------------------------
# RL02x — quality
# ---------------------------------------------------------------------------

@rule("RL020", "cancelling-swaps", WARNING,
      "two adjacent SWAPs on the same pair cancel to the identity")
def check_cancelling_swaps(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_cancelling_swaps.rule  # type: ignore[attr-defined]
    ops = context.circuit.ops
    for index, earlier in context.cancelling:
        qubits = tuple(ops[index].qubits)
        yield this.diagnostic(
            f"swap on {canonical_edge(*qubits)} immediately "
            f"cancels the swap at op#{earlier}",
            op_index=index, cycle=context.cycles[index], qubits=qubits,
            hint="delete both SWAPs; they compose to the "
                 "identity and waste two cycles")


@rule("RL021", "metric-mismatch", WARNING,
      "recorded metrics disagree with recomputation from the circuit")
def check_metric_mismatch(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_metric_mismatch.rule  # type: ignore[attr-defined]
    if not context.expected or context.has_malformed:
        return
    circuit = context.circuit
    recomputed: Dict[str, int] = {
        "depth": context.n_cycles,
        "swaps": context.n_swap,
        "ops": len(circuit),
    }
    if "cx" in context.expected:
        recomputed["cx"] = count_cx(circuit, unify=True)
    for key in sorted(recomputed):
        if key not in context.expected:
            continue
        recorded = context.expected[key]
        if recorded != recomputed[key]:
            yield this.diagnostic(
                f"recorded {key}={recorded} but the circuit recomputes "
                f"to {key}={recomputed[key]}",
                hint="the record and the circuit drifted apart; "
                     "regenerate the serialized result "
                     "(analysis.metrics.result_metrics is the ground "
                     "truth)")


@rule("RL022", "idle-heavy-schedule", INFO,
      "most mapped qubits sit idle through most cycles")
def check_idle_heavy(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_idle_heavy.rule  # type: ignore[attr-defined]
    if context.has_malformed or context.n_cycles < IDLE_MIN_CYCLES:
        return
    n_mapped = min(context.initial_mapping.n_logical,
                   context.circuit.n_qubits)
    if n_mapped == 0:
        return
    idle_fractions: List[float] = [
        max(0.0, 1.0 - active / n_mapped)
        for active in context.cycle_active]
    mean_idle = sum(idle_fractions) / len(idle_fractions)
    if mean_idle > IDLE_FRACTION_THRESHOLD:
        worst = sum(1 for f in idle_fractions
                    if f > IDLE_FRACTION_THRESHOLD)
        yield this.diagnostic(
            f"{mean_idle:.0%} of mapped-qubit cycles are idle on "
            f"average ({worst}/{context.n_cycles} cycles exceed "
            f"{IDLE_FRACTION_THRESHOLD:.0%} idle)",
            hint="the schedule serialises work that could overlap; "
                 "compare against the hybrid preset's depth")
