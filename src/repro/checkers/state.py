"""CK010/CK011 — process-model safety for the daemon's warm workers.

The roadmap's compilation-as-a-service daemon keeps a long-lived pool of
forked workers.  Two classes of today's code become incidents there:

* **CK010** — module-level mutable state mutated at runtime.  Under the
  ``fork`` start method every worker inherits a snapshot of parent
  globals; mutations after the fork diverge silently between processes
  (and race under threads).  The *designated* memo-cache registries —
  ``arch/coupling.py``, ``ata/registry.py`` and ``compiler/mapping.py``
  — are exempt: they are process-local caches by design, with hit/miss
  telemetry and documented fork semantics.  Everything else must either
  move its state into a designated registry or carry a reviewed
  baseline entry.

* **CK011** — unpicklable constructs reaching a process boundary.
  Lambdas and locally-defined functions cannot cross ``pool.submit``,
  nor live in :class:`~repro.batch.jobs.BatchJob` fields or
  :class:`~repro.resilience.retry.RetryPolicy` members that batch
  reports serialise; they fail only at submission time, deep inside a
  sweep.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from ..lint.diagnostics import ERROR
from .base import CheckerRule, ModuleContext, RuleVisitor, checker

#: Modules allowed to mutate module-level state: the process-local memo
#: caches whose fork/clear semantics are documented and telemetered.
DESIGNATED_STATE_MODULES: Tuple[str, ...] = (
    "repro/arch/coupling.py", "repro/ata/registry.py",
    "repro/compiler/mapping.py")

#: Method calls that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "add", "update", "setdefault", "pop", "popitem", "clear",
    "extend", "discard", "remove", "insert"})

#: Constructor names whose call result is mutable.
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
    "deque"})


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in MUTABLE_CONSTRUCTORS
    return False


@checker(
    "CK010", "module-state-mutation", ERROR,
    "A function mutates (or rebinds via `global`) module-level state "
    "outside the designated memo-cache registries; fork-inherited "
    "workers and threads will disagree about its value.",
    "move the state into a designated registry "
    "(arch/coupling.py, ata/registry.py, compiler/mapping.py), or add "
    "a baseline entry justifying why the mutation is import-time-only "
    "or process-safe")
class ModuleStateVisitor(RuleVisitor):
    """Two-phase: collect module globals and mutation sites during the
    walk, judge in :meth:`finish` (a mutating function may precede the
    module-level assignment it targets)."""

    def __init__(self, rule: CheckerRule, module: ModuleContext) -> None:
        super().__init__(rule, module)
        self._silent = module.posix_path().endswith(
            DESIGNATED_STATE_MODULES)
        self._depth = 0
        #: Every name assigned at module level (for `global` rebinds).
        self._module_names: Set[str] = set()
        #: Module-level names bound to a mutable container.
        self._module_mutables: Set[str] = set()
        #: ``(line, name, how)`` candidate mutation sites inside
        #: functions, resolved against the sets above in finish().
        self._mutations: List[Tuple[int, str, str]] = []

    # -- nesting ------------------------------------------------------------

    def _push(self, node: ast.AST) -> None:
        self._depth += 1

    def _pop(self, node: ast.AST) -> None:
        self._depth -= 1

    enter_FunctionDef = _push
    leave_FunctionDef = _pop
    enter_AsyncFunctionDef = _push
    leave_AsyncFunctionDef = _pop
    enter_Lambda = _push
    leave_Lambda = _pop
    enter_ClassDef = _push
    leave_ClassDef = _pop

    # -- collection ---------------------------------------------------------

    def _record_binding(self, target: ast.expr, value: ast.AST) -> None:
        if not isinstance(target, ast.Name):
            return
        self._module_names.add(target.id)
        if _is_mutable_literal(value):
            self._module_mutables.add(target.id)

    def enter_Assign(self, node: ast.Assign) -> None:
        if self._depth == 0:
            for target in node.targets:
                self._record_binding(target, node.value)
            return
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)):
                self._mutations.append(
                    (node.lineno, target.value.id, "subscript store"))

    def enter_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._depth == 0 and node.value is not None:
            self._record_binding(node.target, node.value)

    def enter_AugAssign(self, node: ast.AugAssign) -> None:
        if (self._depth > 0 and isinstance(node.target, ast.Subscript)
                and isinstance(node.target.value, ast.Name)):
            self._mutations.append(
                (node.lineno, node.target.value.id, "augmented store"))

    def enter_Delete(self, node: ast.Delete) -> None:
        if self._depth == 0:
            return
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)):
                self._mutations.append(
                    (node.lineno, target.value.id, "subscript delete"))

    def enter_Global(self, node: ast.Global) -> None:
        if self._depth == 0:
            return
        for name in node.names:
            self._mutations.append((node.lineno, name, "global"))

    def enter_Call(self, node: ast.Call) -> None:
        if self._depth == 0:
            return
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS
                and isinstance(func.value, ast.Name)):
            self._mutations.append(
                (node.lineno, func.value.id, f".{func.attr}()"))

    # -- judgement ----------------------------------------------------------

    def finish(self) -> None:
        if self._silent:
            return
        for line, name, how in sorted(self._mutations):
            if how == "global":
                if name in self._module_names:
                    self.report(
                        line,
                        f"function rebinds module-level {name!r} via "
                        f"`global`; fork-inherited workers will disagree "
                        f"about its value",
                        symbol=name)
            elif name in self._module_mutables:
                self.report(
                    line,
                    f"module-level mutable {name!r} is mutated at "
                    f"runtime ({how}); process-wide state must live in "
                    f"a designated memo-cache registry",
                    symbol=name)


#: Call shapes that hand their arguments to another process or to a
#: serialised job/policy record.
BOUNDARY_METHODS = frozenset({"submit"})
BOUNDARY_CONSTRUCTORS = frozenset({"BatchJob", "RetryPolicy"})


@checker(
    "CK011", "unpicklable-boundary", ERROR,
    "A lambda or locally-defined function is passed across a process "
    "boundary (pool.submit, BatchJob fields, RetryPolicy members); "
    "pickling it fails only at submission time, deep inside a sweep.",
    "hoist the callable to module level (pickle ships it by qualified "
    "name), or vet the line with '# check: ok[CK011]' for "
    "serial-executor-only paths")
class PickleBoundaryVisitor(RuleVisitor):
    """Flag lambdas/local defs in boundary-call argument position."""

    def __init__(self, rule: CheckerRule, module: ModuleContext) -> None:
        super().__init__(rule, module)
        #: Names of functions defined inside an enclosing function, per
        #: scope (module-level defs pickle fine, by qualified name).
        self._local_defs: List[Set[str]] = [set()]

    def enter_FunctionDef(self, node: ast.FunctionDef) -> None:
        if len(self._local_defs) > 1:  # nested inside another function
            self._local_defs[-1].add(node.name)
        self._local_defs.append(set())

    def leave_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._local_defs.pop()

    enter_AsyncFunctionDef = enter_FunctionDef
    leave_AsyncFunctionDef = leave_FunctionDef

    def _known_local(self, name: str) -> bool:
        return any(name in scope for scope in self._local_defs)

    @staticmethod
    def _boundary_name(node: ast.Call) -> str:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in BOUNDARY_METHODS | BOUNDARY_CONSTRUCTORS:
                return func.attr
        elif isinstance(func, ast.Name):
            if func.id in BOUNDARY_CONSTRUCTORS:
                return func.id
        return ""

    def enter_Call(self, node: ast.Call) -> None:
        boundary = self._boundary_name(node)
        if not boundary:
            return
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            if isinstance(value, ast.Lambda):
                self.report(
                    value.lineno,
                    f"lambda passed to {boundary}(...) cannot be "
                    f"pickled across a process boundary",
                    symbol=boundary)
            elif (isinstance(value, ast.Name)
                    and self._known_local(value.id)):
                self.report(
                    value.lineno,
                    f"locally-defined function {value.id!r} passed to "
                    f"{boundary}(...) cannot be pickled across a "
                    f"process boundary",
                    symbol=value.id)
