"""The checker engine: one parse, one walk, every registered rule.

:func:`check_source` parses a module once, instantiates a per-module
visitor for every active rule, and drives them all through a single
depth-first traversal (:class:`CheckerVisitor`), so running the full
catalogue costs one parse + one walk per file regardless of how many
rules are registered.  :func:`check_paths` extends that over files and
directory trees.

Unparseable files become a **CK000** diagnostic instead of a crash —
the same tolerant-scan posture as :mod:`repro.lint` — and CK000 is
emitted even under ``--select``: a file the checkers cannot read is
never silently "clean".

Findings are vetted inline with ``# check: ok`` (all rules) or
``# check: ok[CK010,CK020]`` (listed rules) on the offending line;
CK001 additionally honours the historic ``# det: ok`` comment so the
determinism shim's contract is unchanged.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple
from typing import Union

from ..lint.diagnostics import ERROR, Diagnostic
from .base import (CheckerRule, ModuleContext, RuleVisitor, checker,
                   get_checker, resolve_checkers)

#: Generic vetting comment: ``# check: ok`` or ``# check: ok[CODES]``.
VET_COMMENT_RE = re.compile(r"#\s*check:\s*ok(?:\[([A-Z0-9_, ]+)\])?")
#: Historic determinism-checker vetting comment (CK001 only).
LEGACY_DET_COMMENT = "# det: ok"

#: Code of the syntax-error pseudo-rule.
SYNTAX_ERROR_CODE = "CK000"


@checker(
    SYNTAX_ERROR_CODE, "syntax-error", ERROR,
    "The file does not parse as Python; none of the static guarantees "
    "can be checked for it.",
    "none — fix the syntax error (CK000 is emitted even under "
    "--select; an unreadable file is never silently clean)")
class SyntaxErrorRule(RuleVisitor):
    """Placeholder visitor: the engine emits CK000 directly on parse
    failure, before any visitor can run."""


class CheckerVisitor:
    """One walk, every rule: dispatch each node to per-rule hooks.

    For a node of AST type ``T`` every visitor's ``enter_T`` hook runs
    before the node's children and ``leave_T`` after, which gives rules
    proper scope-stack discipline without each paying for its own
    traversal.
    """

    def __init__(self, visitors: Sequence[RuleVisitor]) -> None:
        self._visitors = tuple(visitors)

    def walk(self, node: ast.AST) -> None:
        kind = type(node).__name__
        for visitor in self._visitors:
            enter: Optional[Callable[[ast.AST], None]] = getattr(
                visitor, f"enter_{kind}", None)
            if enter is not None:
                enter(node)
        for child in ast.iter_child_nodes(node):
            self.walk(child)
        for visitor in self._visitors:
            leave: Optional[Callable[[ast.AST], None]] = getattr(
                visitor, f"leave_{kind}", None)
            if leave is not None:
                leave(node)


def _suppressed(diagnostic: Diagnostic, module: ModuleContext) -> bool:
    """Is the finding vetted by a comment on its own source line?"""
    if diagnostic.line is None:
        return False
    text = module.text(diagnostic.line)
    if diagnostic.code == "CK001" and LEGACY_DET_COMMENT in text:
        return True
    match = VET_COMMENT_RE.search(text)
    if match is None:
        return False
    codes = match.group(1)
    if codes is None:
        return True
    return diagnostic.code in {c.strip() for c in codes.split(",")}


def check_source(source: str, path: str,
                 rules: Optional[Sequence[CheckerRule]] = None,
                 restrict: bool = True) -> List[Diagnostic]:
    """Run the rule set over one module's source.

    ``rules`` defaults to the full catalogue; ``restrict=True`` honours
    each rule's ``hot_paths`` restriction (``False`` — used by fixture
    tests — runs every given rule on every file).
    """
    active = resolve_checkers() if rules is None else tuple(rules)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        rule = get_checker(SYNTAX_ERROR_CODE)
        return [Diagnostic(
            code=rule.code, severity=rule.severity, rule=rule.name,
            message=f"syntax error: {exc.msg}",
            path=path, line=exc.lineno or 1)]
    module = ModuleContext(path=path, source=source, tree=tree,
                           lines=tuple(source.splitlines()))
    visitors = [rule.visitor(rule, module) for rule in active
                if rule.code != SYNTAX_ERROR_CODE
                and (not restrict or rule.applies_to(path))]
    if not visitors:
        return []
    CheckerVisitor(visitors).walk(tree)
    findings: List[Diagnostic] = []
    for visitor in visitors:
        visitor.finish()
        findings.extend(d for d in visitor.diagnostics
                        if not _suppressed(d, module))
    findings.sort(key=Diagnostic.sort_key)
    return findings


def iter_python_files(base: Path) -> List[Path]:
    """The Python files under ``base`` (itself, when it is a file)."""
    if base.is_file():
        return [base]
    if base.is_dir():
        return sorted(base.rglob("*.py"))
    raise FileNotFoundError(f"no such file or directory: {base}")


def check_paths(paths: Iterable[Union[str, Path]],
                select: Optional[Tuple[str, ...]] = None,
                ignore: Optional[Tuple[str, ...]] = None,
                restrict: bool = True) -> List[Diagnostic]:
    """Run the (selected) catalogue over files and directory trees.

    Raises :class:`FileNotFoundError` for a path that exists as
    neither; unknown rule codes in ``select``/``ignore`` raise
    ``ValueError`` before any file is read.
    """
    rules = resolve_checkers(select, ignore)
    findings: List[Diagnostic] = []
    for base in paths:
        for file in iter_python_files(Path(base)):
            findings.extend(check_source(
                file.read_text(encoding="utf-8"), str(file),
                rules, restrict))
    return findings
