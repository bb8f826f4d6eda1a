"""Structured diagnostics for the circuit lint subsystem.

The linter collects **every** finding in one scan as
:class:`Diagnostic` records — rule code, severity, offending op index and
cycle, the physical (and, where known, logical) qubits involved, a
message and a fix hint — aggregated into a :class:`LintReport`.  The
records are plain data so they serialise into batch reports, CI output
and ``CompiledResult.extra`` without further ceremony.  Validation
(:mod:`repro.ir.validate`) raises on a report's first blocking diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import LintContext

#: Severity levels, most severe first.
ERROR = "error"
WARNING = "warning"
INFO = "info"

SEVERITIES: Tuple[str, ...] = (ERROR, WARNING, INFO)

#: Rank used to order diagnostics of equal position (errors first).
_SEVERITY_RANK: Dict[str, int] = {sev: i for i, sev in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, pinpointed to an op where possible.

    ``op_index``/``cycle`` are ``None`` for circuit-level findings (a
    problem edge that was never executed has no op to point at).
    ``qubits`` are *physical* indices; ``logical`` is the logical pair a
    CPHASE implements under the tracked mapping, when that is known.
    """

    code: str
    severity: str
    rule: str
    message: str
    op_index: Optional[int] = None
    cycle: Optional[int] = None
    qubits: Tuple[int, ...] = ()
    logical: Optional[Tuple[int, int]] = None
    hint: Optional[str] = None
    #: Program layer index when linting a layered program; ``None`` for
    #: plain single-circuit lint runs.
    layer: Optional[int] = None
    #: Source-file coordinates for *static* findings (``repro.checkers``);
    #: ``None`` for circuit lint, where ``op_index``/``cycle`` locate the
    #: finding instead.
    path: Optional[str] = None
    line: Optional[int] = None
    #: Named program entity the finding is about (a global, a fault-point
    #: site, a knob name) — used for baseline matching.
    symbol: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the batch/CLI reporter payload).

        The source-coordinate keys (``path``/``line``/``symbol``) appear
        only on static findings, so the circuit-lint payload is
        unchanged by their existence.
        """
        if self.path is not None:
            return {
                "code": self.code,
                "severity": self.severity,
                "rule": self.rule,
                "message": self.message,
                "path": self.path,
                "line": self.line,
                "symbol": self.symbol,
                "hint": self.hint,
            }
        return {
            "code": self.code,
            "severity": self.severity,
            "rule": self.rule,
            "message": self.message,
            "op_index": self.op_index,
            "cycle": self.cycle,
            "qubits": list(self.qubits),
            "logical": list(self.logical) if self.logical is not None
            else None,
            "hint": self.hint,
            "layer": self.layer,
        }

    def location(self) -> str:
        """Compact ``layer k op#i cycle c`` prefix for text rendering.

        Static findings render as the familiar ``path:line`` instead.
        """
        if self.path is not None:
            return (f"{self.path}:{self.line}" if self.line is not None
                    else self.path)
        parts: List[str] = []
        if self.layer is not None:
            parts.append(f"layer {self.layer}")
        if self.op_index is not None:
            parts.append(f"op#{self.op_index}")
        if self.cycle is not None:
            parts.append(f"cycle {self.cycle}")
        if self.qubits:
            parts.append(f"qubits {tuple(self.qubits)}")
        return " ".join(parts) if parts else "circuit"

    def sort_key(self) -> Tuple[Any, ...]:
        """Layer, then op order (circuit-level findings last), then
        severity.  Static findings sort by ``(path, line)`` instead."""
        if self.path is not None:
            return (self.path, self.line if self.line is not None else 0,
                    _SEVERITY_RANK.get(self.severity, len(SEVERITIES)),
                    self.code)
        layer = self.layer if self.layer is not None else -1
        index = self.op_index if self.op_index is not None else 1 << 30
        return (layer, index,
                _SEVERITY_RANK.get(self.severity, len(SEVERITIES)),
                self.code)


@dataclass
class LintReport:
    """Every diagnostic one lint run produced, in op order."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: The scanned contexts the rules ran over (empty for static findings).
    contexts: List["LintContext"] = field(default_factory=list,
                                          repr=False, compare=False)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == INFO]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity diagnostic was found."""
        return not self.errors

    def counts(self) -> Dict[str, int]:
        """``{severity: count}`` over every known severity."""
        out = {severity: 0 for severity in SEVERITIES}
        for diagnostic in self.diagnostics:
            out[diagnostic.severity] = out.get(diagnostic.severity, 0) + 1
        return out

    def by_rule(self) -> Dict[str, int]:
        """``{rule code: count}``, sorted by code."""
        out: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            out[diagnostic.code] = out.get(diagnostic.code, 0) + 1
        return dict(sorted(out.items()))

    def codes(self) -> Tuple[str, ...]:
        """The distinct rule codes that fired, sorted."""
        return tuple(sorted({d.code for d in self.diagnostics}))

    def summary(self) -> str:
        counts = self.counts()
        if not self.diagnostics:
            return "clean: no diagnostics"
        return (f"{counts[ERROR]} error(s), {counts[WARNING]} warning(s), "
                f"{counts[INFO]} info")

    def __len__(self) -> int:
        return len(self.diagnostics)
