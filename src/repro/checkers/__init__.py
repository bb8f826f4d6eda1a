"""Whole-repo static analysis: the invariants the daemon depends on.

``repro.checkers`` is :mod:`repro.lint` one level up — where lint rules
scan compiled circuits, checker rules scan the *source tree* that
produces them, proving at lint time the properties the dynamic suites
only observe after the fact:

========  ============================================================
CK000     file does not parse (tolerant-scan posture; never silent)
CK001     no unordered set/``dict.keys()`` iteration in hot paths
CK010     no runtime mutation of module-level state outside the
          designated memo-cache registries
CK011     no lambdas/local functions crossing process boundaries
CK020     every raise in retry-reachable code uses a classified
          exception from :mod:`repro.exceptions`
CK021     ``fault_point`` site names registered in ``KNOWN_SITES``
CK030     ``Pass`` knob reads declared by a registered ``MethodSpec``
========  ============================================================

Run the catalogue with ``python -m repro check`` (see ``docs/checks.md``
for the full rule reference, escape hatches and the baseline format).
Importing the rule modules below is what populates the registry.
"""

from __future__ import annotations

from .base import (CheckerRule, ModuleContext, RuleVisitor, all_checkers,
                   checker, checker_table, get_checker, register_checker,
                   resolve_checkers)
from .baseline import (BASELINE_VERSION, DEFAULT_BASELINE_NAME,
                       BaselineEntry, BaselineError, apply_baseline,
                       load_baseline)
from .engine import (LEGACY_DET_COMMENT, SYNTAX_ERROR_CODE, CheckerVisitor,
                     check_paths, check_source, iter_python_files)
from . import determinism  # noqa: F401  (registers CK001)
from . import state        # noqa: F401  (registers CK010/CK011)
from . import errors       # noqa: F401  (registers CK020/CK021)
from . import knobs        # noqa: F401  (registers CK030)

__all__ = [
    "BASELINE_VERSION",
    "DEFAULT_BASELINE_NAME",
    "LEGACY_DET_COMMENT",
    "SYNTAX_ERROR_CODE",
    "BaselineEntry",
    "BaselineError",
    "CheckerRule",
    "CheckerVisitor",
    "ModuleContext",
    "RuleVisitor",
    "all_checkers",
    "apply_baseline",
    "check_paths",
    "check_source",
    "checker",
    "checker_table",
    "get_checker",
    "iter_python_files",
    "load_baseline",
    "register_checker",
    "resolve_checkers",
]
