"""Baseline compilers the paper compares against (Section 7.1).

All are *reimplementations in spirit*: each preserves the algorithmic
traits that position the original tool relative to the regularity-aware
compiler (see DESIGN.md, Substitutions).  Every baseline emits circuits
through the same IR and is checked by the same validator.

The "greedy" and "solver" bars of Fig 17 are
``repro.compiler.compile_qaoa(..., method="greedy")`` and
``method="ata"`` respectively.
"""

from .olsq import compile_olsq
from .paulihedral import compile_paulihedral
from .qaim import compile_qaim
from .sabre import compile_sabre
from .satmap import compile_satmap
from .twoqan import compile_twoqan, quadratic_initial_mapping

__all__ = [
    "compile_sabre",
    "compile_paulihedral",
    "compile_qaim",
    "compile_twoqan",
    "compile_olsq",
    "compile_satmap",
    "quadratic_initial_mapping",
]
