"""Circuit lint: a diagnostics-based static analyzer for compiled circuits.

:func:`lint_circuit` tracks the logical mapping through every SWAP in
one tolerant scan and reports **every** finding as a structured
:class:`Diagnostic` (rule code, severity, op index, cycle, qubits,
message, fix hint) collected into a :class:`LintReport`.

It is the one definition of a correct circuit: validation
(:mod:`repro.ir.validate`, ``CompiledResult.validate``,
``BatchJob(validate=True)``) raises on the first diagnostic of a rule in
:data:`BLOCKING_RULES` — every error-severity rule plus RL032.

Rule groups (full catalogue in ``docs/linting.md``):

* ``RL00x`` hardware conformance — uncoupled pairs, intra-cycle qubit
  reuse, out-of-range indices (errors);
* ``RL01x`` semantic integrity — spare-qubit gates, non-problem edges,
  repeated/missing edges, tag/mapping disagreement (errors);
* ``RL02x`` quality — cancelling SWAP pairs, metric-accounting drift,
  idle-heavy schedules (warnings/info);
* ``RL03x`` layered programs — mapping continuity and provenance
  (errors), uncancelled even-p permutation (warning).

Entry points:

* :func:`lint_circuit` / :func:`lint_result` — library API;
* ``python -m repro lint`` — CLI over serialized circuits/results/QASM;
* ``BatchJob(lint=True)`` — per-job diagnostics aggregated into the
  :class:`repro.batch.BatchReport`.
"""

from .diagnostics import (ERROR, INFO, SEVERITIES, WARNING, Diagnostic,
                          LintReport)
from .engine import LintContext, OpView, build_context, lint_circuit, \
    lint_result
from .program import lint_program
from .reporters import JSON_SCHEMA_VERSION, render_json, render_text
from .rules import (BLOCKING_RULES, LintRule, all_rules, get_rule,
                    register_rule, resolve_rules, rule, rule_table)

__all__ = [
    "lint_program",
    "Diagnostic",
    "LintReport",
    "LintRule",
    "LintContext",
    "OpView",
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITIES",
    "JSON_SCHEMA_VERSION",
    "lint_circuit",
    "lint_result",
    "build_context",
    "BLOCKING_RULES",
    "render_text",
    "render_json",
    "rule",
    "register_rule",
    "get_rule",
    "all_rules",
    "resolve_rules",
    "rule_table",
]
