"""Semantic validation of compiled circuits: a view of lint's blocking rules.

The correctness conditions (every two-qubit op on a coupled pair; tracking
the mapping through every SWAP, each problem edge realised by exactly one
CPHASE and nothing else) are the :mod:`repro.lint` rules named by
:data:`repro.lint.rules.BLOCKING_RULES`.  Validation raises
:class:`~repro.exceptions.ValidationError` on the first blocking diagnostic,
else reads a :class:`ValidationReport` off the scanned context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Iterable, Optional, Sequence, Set,
                    Tuple)

from ..exceptions import ValidationError
from .circuit import Circuit
from .mapping import Mapping

if TYPE_CHECKING:  # pragma: no cover - repro.lint imports repro.ir
    from ..lint.diagnostics import LintReport
    from ..lint.engine import LintContext


@dataclass
class ValidationReport:
    """Summary of a successful validation."""

    n_cphase: int = 0
    n_swap: int = 0
    executed_edges: Set[Tuple[int, int]] = field(default_factory=set)
    final_mapping: Optional[Mapping] = None

    @property
    def n_edges(self) -> int:
        """Number of distinct problem edges executed."""
        return len(self.executed_edges)


def validate_lint_report(report: "LintReport") -> ValidationReport:
    """Raise on the first blocking diagnostic of ``report`` (a full lint
    run or a blocking-only one), else summarise its first scanned
    context — the cost layer of a layered program."""
    from ..lint.rules import BLOCKING_RULES

    for diagnostic in report.diagnostics:
        if diagnostic.code not in BLOCKING_RULES:
            continue
        message = diagnostic.message
        if diagnostic.code == "RL013":  # one count, not one line per edge
            missing = next(c for c in report.contexts
                           if c.layer_index == diagnostic.layer
                           ).missing_edges()
            message = (f"{len(missing)} problem edges never executed "
                       f"(first few: {missing[:5]})")
        raise ValidationError(
            f"{diagnostic.code} at {diagnostic.location()}: {message}")
    context = report.contexts[0]
    return ValidationReport(
        n_cphase=sum(len(ops) for ops in context.executed.values()),
        n_swap=context.n_swap,
        executed_edges=set(context.executed),
        final_mapping=context.final_mapping)


def blocking_lint(contexts: Sequence["LintContext"]) -> "LintReport":
    """The report of the blocking rules alone over ``contexts``."""
    from ..lint.engine import run_rules
    from ..lint.rules import BLOCKING_RULES

    return run_rules(contexts, select=BLOCKING_RULES)


def validate_compiled(
    circuit: Circuit,
    coupling_edges: Iterable[Tuple[int, int]],
    initial_mapping: Mapping,
    problem_edges: Iterable[Tuple[int, int]],
    require_all_edges: bool = True,
    allow_repeats: bool = False,
) -> ValidationReport:
    """Check a compiled circuit (physical-qubit ops, starting from
    ``initial_mapping``) against the hardware edges and the logical
    problem edges.  ``require_all_edges=False`` tolerates unexecuted
    problem edges; ``allow_repeats=True`` admits clique patterns that
    revisit pairs.  Raises :class:`ValidationError` naming the first
    blocking rule's code and location."""
    from ..lint.engine import build_context

    return validate_lint_report(blocking_lint([build_context(
        circuit, coupling_edges, initial_mapping, problem_edges,
        allow_repeats=allow_repeats, require_all_edges=require_all_edges)]))
