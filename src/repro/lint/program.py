"""Program-aware linting: :func:`lint_program` runs the rule catalogue
once per layer (:func:`~repro.lint.engine.program_contexts`), stamping
each diagnostic with its layer index, plus the RL03x rules for what only
a program can get wrong:

* **RL030 layer-mapping-discontinuity** (error) — a layer's recorded
  input mapping disagrees with the previous layer's recorded output;
* **RL031 layer-permutation-drift** (error) — a layer's recorded output
  mapping disagrees with what its SWAPs actually produce;
* **RL032 uncancelled-permutation** (warning, but a blocking rule for
  validation) — an even number of cost layers whose net permutation is
  *not* the identity: the reversed-layer cancellation was not applied.
"""

from __future__ import annotations

from typing import (Iterable, Iterator, List, Mapping as TypingMapping,
                    Optional, Sequence, Tuple)

from ..ir.program import Program
from .diagnostics import ERROR, WARNING, Diagnostic, LintReport
from .engine import LintContext, program_contexts, run_rules
from .rules import get_rule, rule

Edge = Tuple[int, int]


@rule("RL030", "layer-mapping-discontinuity", ERROR,
      "a program layer's input mapping disagrees with the previous "
      "layer's output mapping")
def check_layer_continuity(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_layer_continuity.rule  # type: ignore[attr-defined]
    program = context.program
    index = context.layer_index
    if program is None or index is None or index == 0:
        return
    layer = program.layers[index]
    previous = program.layers[index - 1]
    if layer.input_log_to_phys != previous.output_log_to_phys:
        yield this.diagnostic(
            f"layer {index} ({layer.role}) starts from mapping "
            f"{list(layer.input_log_to_phys)} but layer {index - 1} "
            f"({previous.role}) ends at "
            f"{list(previous.output_log_to_phys)}",
            hint="layers must be mapping-continuous; the program was "
                 "assembled (or edited) inconsistently")


@rule("RL031", "layer-permutation-drift", ERROR,
      "a program layer's recorded output mapping disagrees with the "
      "layout its SWAPs actually produce")
def check_layer_permutation(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_layer_permutation.rule  # type: ignore[attr-defined]
    program = context.program
    index = context.layer_index
    if program is None or index is None or context.has_malformed:
        return
    layer = program.layers[index]
    scanned = context.final_mapping
    if tuple(scanned.log_to_phys) != layer.output_log_to_phys:
        yield this.diagnostic(
            f"layer {index} ({layer.role}) records output mapping "
            f"{list(layer.output_log_to_phys)} but its SWAPs produce "
            f"{list(scanned.log_to_phys)}",
            hint="the recorded mapping provenance and the circuit "
                 "drifted apart; reassemble the program")


@rule("RL032", "uncancelled-permutation", WARNING,
      "an even number of cost layers leaves a non-identity net "
      "permutation — the reversed-layer cancellation was not applied")
def check_uncancelled(context: "LintContext") -> Iterator[Diagnostic]:
    this = check_uncancelled.rule  # type: ignore[attr-defined]
    program = context.program
    index = context.layer_index
    if program is None or index is None:
        return
    if index != len(program.layers) - 1:  # fire once, on the last layer
        return
    if program.p % 2 == 0 and not program.net_permutation_is_identity:
        yield this.diagnostic(
            f"{program.p} cost layers end at "
            f"{list(program.final_log_to_phys)} instead of the initial "
            f"placement {list(program.initial_mapping.log_to_phys)}",
            hint="alternate each cost layer with its op-reversal "
                 "(repro.ir.reversed_layer) so the permutations cancel "
                 "pairwise and measurement needs no remapping")


def lint_program(
    program: Program,
    coupling_edges: Iterable[Edge],
    problem_edges: Iterable[Edge],
    allow_repeats: bool = False,
    expected: Optional[TypingMapping[str, object]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint every layer of a program, one rule sweep per layer.

    Cost layers are held to the full single-circuit contract from their
    own input mapping (every problem edge exactly once, on hardware,
    semantically tracked); mixer walls skip the all-edges requirement.
    ``expected`` cross-checks recorded program totals (``ops`` /
    ``swaps``, e.g. from ``CompiledResult.extra["program"]``) against
    recomputation, the program-level analogue of RL021.
    """
    report = run_rules(
        program_contexts(program, coupling_edges, problem_edges,
                         allow_repeats=allow_repeats), select, ignore)
    if expected:
        report.diagnostics.extend(_check_program_totals(program, expected))
        report.diagnostics.sort(key=Diagnostic.sort_key)
    return report


def _check_program_totals(
        program: Program,
        expected: TypingMapping[str, object]) -> List[Diagnostic]:
    """RL021 over program totals: recorded vs recomputed ops/swaps."""
    rl021 = get_rule("RL021")
    recomputed = {"ops": program.n_ops(), "swaps": program.swap_count(),
                  "layers": len(program.layers), "p": program.p}
    out: List[Diagnostic] = []
    for key in sorted(recomputed):
        if key not in expected:
            continue
        if expected[key] != recomputed[key]:
            out.append(rl021.diagnostic(
                f"recorded program {key}={expected[key]} but the layers "
                f"recompute to {key}={recomputed[key]}",
                hint="the program record and its layer circuits drifted "
                     "apart; regenerate the serialized program"))
    return out
