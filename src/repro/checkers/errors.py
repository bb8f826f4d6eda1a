"""CK020/CK021 — failure-path contracts the resilience layer relies on.

* **CK020** — every ``raise`` in the retry-reachable subsystems
  (``batch``, ``pipeline``, ``solver``, ``resilience``) must use an
  exception class classified in :mod:`repro.exceptions`.  The retry
  policy decides transient-vs-permanent by class; an unknown type is
  silently treated as permanent, so an unclassified raise quietly
  disables retries for that failure.

* **CK021** — chaos-test site names are stringly-typed contracts: a
  :func:`~repro.resilience.faults.fault_point` site name not in the
  registered :data:`~repro.resilience.faults.KNOWN_SITES` list can
  never be targeted by a fault plan (a typo makes the chaos suite
  vacuously pass).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional, Tuple

from ..lint.diagnostics import ERROR
from .base import CheckerRule, ModuleContext, RuleVisitor, checker

#: Retry-reachable subsystems CK020 is restricted to.
RETRY_PATHS: Tuple[str, ...] = (
    "repro/batch", "repro/pipeline", "repro/solver", "repro/resilience")

#: Builtins whose raise semantics are orthogonal to retry
#: classification (control flow and programmer-error assertions).
ALLOWED_BUILTINS = frozenset({
    "NotImplementedError", "AssertionError", "StopIteration",
    "KeyboardInterrupt"})

_CLASSIFIED: Optional[FrozenSet[str]] = None


def classified_exception_names() -> FrozenSet[str]:
    """Exception class names defined (or re-exported) in
    :mod:`repro.exceptions`, plus the allowed builtins."""
    global _CLASSIFIED  # memo of an import-derived constant  # check: ok[CK010]
    if _CLASSIFIED is None:
        from .. import exceptions

        names = {name for name, obj in vars(exceptions).items()
                 if isinstance(obj, type)
                 and issubclass(obj, BaseException)}
        _CLASSIFIED = frozenset(names | ALLOWED_BUILTINS)
    return _CLASSIFIED


@checker(
    "CK020", "unclassified-raise", ERROR,
    "A retry-reachable subsystem raises an exception class that "
    "repro.exceptions does not classify transient-or-permanent; the "
    "retry layer silently treats unknown types as permanent.",
    "raise a class from repro.exceptions (SpecificationError for "
    "caller errors), or vet the line with '# check: ok[CK020]' where "
    "the raise provably never crosses the retry layer",
    hot_paths=RETRY_PATHS)
class RaiseClassificationVisitor(RuleVisitor):
    """Flag ``raise SomeError(...)`` of unclassified exception types."""

    def enter_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        # Bare re-raises and `raise err` variables re-throw an already
        # classified (or upstream) instance; only construction sites
        # choose a class.
        if not isinstance(exc, ast.Call):
            return
        func = exc.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        if name not in classified_exception_names():
            self.report(
                node.lineno,
                f"raise of unclassified exception {name}(...) in a "
                f"retry-reachable subsystem; the retry layer treats "
                f"unknown types as silently permanent",
                symbol=name,
                hint="use a class from repro.exceptions "
                     "(SpecificationError subclasses ValueError for "
                     "caller errors)")


@checker(
    "CK021", "fault-site-naming", ERROR,
    "A fault_point site name is not in the registered KNOWN_SITES "
    "list.",
    "register new sites in repro.resilience.faults.KNOWN_SITES (and "
    "the module's site table)")
class FaultSiteNamingVisitor(RuleVisitor):
    """Check fault-point site name literals."""

    def __init__(self, rule: CheckerRule, module: ModuleContext) -> None:
        super().__init__(rule, module)
        from ..resilience.faults import KNOWN_SITES

        self._known_sites = frozenset(KNOWN_SITES)

    @staticmethod
    def _callee(node: ast.Call) -> str:
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return ""

    def enter_Call(self, node: ast.Call) -> None:
        if self._callee(node) == "fault_point":
            self._check_site(node)

    def _check_site(self, node: ast.Call) -> None:
        if not node.args:
            return
        site = node.args[0]
        if not isinstance(site, ast.Constant) \
                or not isinstance(site.value, str):
            return
        if site.value not in self._known_sites:
            self.report(
                site.lineno,
                f"fault_point site {site.value!r} is not registered in "
                f"repro.resilience.faults.KNOWN_SITES; fault plans can "
                f"never target it",
                symbol=site.value)
