"""CK001 — no unordered iteration in compiler hot paths.

Compilation must be reproducible: the same instance and seed must yield
the same circuit on every run and every machine.  Iterating a ``set`` /
``frozenset`` (or ``dict.keys()`` pulled out explicitly, usually a tell
that the author was thinking in sets) makes gate and SWAP choice depend
on hash-iteration order, which is not a stable contract.  The rule
flags:

* ``for x in set(...)`` / ``frozenset(...)`` / a set literal or set
  comprehension, in statements and comprehensions;
* iteration over a local name that was assigned one of those;
* ``for k in d.keys()`` — iterate the dict (insertion-ordered) or sort.

Wrapping the iterable in ``sorted(...)`` (or ``min``/``max``/``sum``,
which are order-insensitive) silences the finding, as does the vetting
comment ``# det: ok`` on the offending line for sites where unordered
iteration is provably harmless (e.g. building another set).
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from ..lint.diagnostics import ERROR
from .base import CheckerRule, ModuleContext, RuleVisitor, checker

#: Calls whose result iterates in hash order.
SET_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: Path fragments the rule is restricted to under ``restrict=True`` —
#: the compiler hot paths.
HOT_PATHS: Tuple[str, ...] = (
    "repro/compiler", "repro/ata", "repro/pipeline", "repro/solver",
    "repro/resilience", "repro/ir")

SET_ITERATION_MESSAGE = (
    "iteration over a set is hash-ordered; wrap it in sorted(...) to "
    "keep compilations deterministic")
KEYS_ITERATION_MESSAGE = (
    "iterate the dict directly (insertion-ordered) or wrap .keys() in "
    "sorted(...)")


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Does ``node`` evaluate to a set (literally or via a known name)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in SET_CONSTRUCTORS):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # set algebra (a | b, required - done, ...) stays a set
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def _is_keys_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args and not node.keywords)


@checker(
    "CK001", "no-unordered-iteration", ERROR,
    "Hot-path code iterates a set/frozenset (or dict.keys()) whose "
    "hash order leaks into the compiled circuit.",
    "wrap the iterable in sorted(...) (or min/max/sum), or vet the "
    "line with '# det: ok' where order provably cannot matter",
    hot_paths=HOT_PATHS)
class DeterminismVisitor(RuleVisitor):
    """Collect unordered-iteration findings for one module."""

    def __init__(self, rule: CheckerRule, module: ModuleContext) -> None:
        super().__init__(rule, module)
        #: Names assigned a set-valued expression, per enclosing scope.
        self._scopes: List[Set[str]] = [set()]

    # -- scope tracking -----------------------------------------------------

    @property
    def _set_names(self) -> Set[str]:
        names: Set[str] = set()
        for scope in self._scopes:
            names |= scope
        return names

    def enter_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scopes.append(set())

    def leave_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scopes.pop()

    def enter_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._scopes.append(set())

    def leave_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._scopes.pop()

    def enter_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self._set_names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._scopes[-1].add(target.id)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._scopes[-1].discard(target.id)

    def enter_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (node.value is not None and isinstance(node.target, ast.Name)
                and _is_set_expr(node.value, self._set_names)):
            self._scopes[-1].add(node.target.id)

    # -- iteration sites ----------------------------------------------------

    def _check_iter(self, iter_node: ast.expr) -> None:
        if _is_set_expr(iter_node, self._set_names):
            self.report(iter_node.lineno, SET_ITERATION_MESSAGE)
        elif _is_keys_call(iter_node):
            self.report(iter_node.lineno, KEYS_ITERATION_MESSAGE)

    def enter_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)

    def _enter_comprehension(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", []):
            self._check_iter(comp.iter)

    enter_ListComp = _enter_comprehension
    enter_GeneratorExp = _enter_comprehension
    enter_DictComp = _enter_comprehension
    # ast.SetComp deliberately has no hook: building a *set* from a set
    # is order-insensitive by definition.
