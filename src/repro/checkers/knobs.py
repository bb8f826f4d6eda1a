"""CK030 — knob-schema agreement between registry and pipeline.

A :class:`~repro.pipeline.registry.MethodSpec` declares the knob names
its method understands; passes read knobs through
``context.knob("name", default)``.  The two drift silently: a pass can
grow a knob read that no spec declares, and because ``context.knob``
defaults instead of raising, callers who set the knob through a method
that never forwards it get the default with no error.  This rule flags
every knob read inside a ``Pass`` subclass whose name is not declared
by any registered method.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional

from ..lint.diagnostics import ERROR
from .base import CheckerRule, ModuleContext, RuleVisitor, checker


@checker(
    "CK030", "undeclared-knob", ERROR,
    "A Pass subclass reads a knob that no registered MethodSpec "
    "declares; the knob silently defaults for every caller that sets "
    "it through an undeclaring method.",
    "declare the knob on the owning MethodSpec(s) in "
    "repro/pipeline/registry.py (paper knobs go in its PAPER_KNOBS, "
    "with their default)")
class KnobDeclarationVisitor(RuleVisitor):
    """Flag ``context.knob("x")`` / ``.knobs["x"]`` reads of knob names
    absent from the union of every registered method's declaration."""

    def __init__(self, rule: CheckerRule, module: ModuleContext) -> None:
        super().__init__(rule, module)
        #: Nesting of ClassDefs; True where the class looks like a Pass.
        self._class_stack: List[bool] = []
        self._declared: Optional[FrozenSet[str]] = None

    def _declared_knobs(self) -> FrozenSet[str]:
        if self._declared is None:
            from ..pipeline.registry import declared_knobs

            self._declared = declared_knobs()
        return self._declared

    @staticmethod
    def _is_pass_base(base: ast.expr) -> bool:
        if isinstance(base, ast.Name):
            return base.id.endswith("Pass")
        if isinstance(base, ast.Attribute):
            return base.attr.endswith("Pass")
        return False

    def enter_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(
            any(self._is_pass_base(base) for base in node.bases))

    def leave_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.pop()

    @property
    def _inside_pass(self) -> bool:
        return any(self._class_stack)

    def _check_name(self, node: ast.expr) -> None:
        if not isinstance(node, ast.Constant) \
                or not isinstance(node.value, str):
            return
        name = node.value
        if name not in self._declared_knobs():
            self.report(
                node.lineno,
                f"Pass reads knob {name!r} that no registered "
                f"MethodSpec declares; the registry schema and the "
                f"pipeline have drifted apart",
                symbol=name)

    def enter_Call(self, node: ast.Call) -> None:
        if not self._inside_pass or not node.args:
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        # context.knob("name", default)
        if func.attr == "knob":
            self._check_name(node.args[0])
        # context.knobs.get("name", default)
        elif (func.attr == "get" and isinstance(func.value, ast.Attribute)
                and func.value.attr == "knobs"):
            self._check_name(node.args[0])

    def enter_Subscript(self, node: ast.Subscript) -> None:
        # context.knobs["name"]
        if (self._inside_pass and isinstance(node.value, ast.Attribute)
                and node.value.attr == "knobs"):
            self._check_name(node.slice)
