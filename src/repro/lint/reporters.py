"""Text and JSON rendering of lint reports.

Both reporters are pure functions of a :class:`~repro.lint.diagnostics.
LintReport`; the CLI and the batch engine share them so
a diagnostic looks the same everywhere it surfaces.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .diagnostics import LintReport

#: Version stamp of the JSON reporter schema.
JSON_SCHEMA_VERSION = 1


def render_text(report: LintReport, source: Optional[str] = None) -> str:
    """Human-readable rendering, one line per diagnostic.

    Example::

        fixture.json: 2 error(s), 1 warning(s), 0 info
          RL001 error   op#3 cycle 1 qubits (0, 4): cphase acts on ...
                hint: route the pair adjacent with SWAPs ...
    """
    prefix = f"{source}: " if source else ""
    lines: List[str] = [f"{prefix}{report.summary()}"]
    for diagnostic in report.diagnostics:
        lines.append(f"  {diagnostic.code} {diagnostic.severity:<7} "
                     f"{diagnostic.location()}: {diagnostic.message}")
        if diagnostic.hint:
            lines.append(f"        hint: {diagnostic.hint}")
    return "\n".join(lines)


def render_json(report: LintReport,
                source: Optional[str] = None,
                max_diagnostics: Optional[int] = None) -> Dict[str, Any]:
    """Plain-JSON rendering (the ``--format json`` / batch payload).

    ``max_diagnostics`` caps the embedded diagnostic list (batch reports
    cross process boundaries); ``truncated`` records how many were
    dropped so aggregation stays honest.
    """
    diagnostics = report.diagnostics
    truncated = 0
    if max_diagnostics is not None and len(diagnostics) > max_diagnostics:
        truncated = len(diagnostics) - max_diagnostics
        diagnostics = diagnostics[:max_diagnostics]
    payload: Dict[str, Any] = {
        "version": JSON_SCHEMA_VERSION,
        "ok": report.ok,
        "counts": report.counts(),
        "by_rule": report.by_rule(),
        "diagnostics": [d.to_dict() for d in diagnostics],
        "truncated": truncated,
    }
    if source is not None:
        payload["source"] = source
    return payload
