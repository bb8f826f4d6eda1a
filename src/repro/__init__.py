"""repro — reproduction of Jin et al., ASPLOS 2023.

"Exploiting the Regular Structure of Modern Quantum Architectures for
Compiling and Optimizing Programs with Permutable Operators."

Public API highlights
---------------------

* :func:`repro.compile_qaoa` — the paper's hybrid compiler (greedy + ATA).
* :mod:`repro.pipeline` — the composable pass-pipeline core behind it:
  ``CompilationContext`` threaded through ``Pass`` objects run by a
  ``Pipeline``, plus the single method registry
  (:func:`repro.available_methods`) that names every compiler — paper
  methods and baselines alike.
* :func:`repro.compile_many` / :mod:`repro.batch` — batch compilation over
  a process pool with shared caches, per-job timeouts and telemetry.
* :func:`repro.lint_circuit` / :mod:`repro.lint` — the diagnostics-based
  static analyzer for compiled circuits (rule codes ``RL0xx``; see
  ``docs/linting.md``), also available as the batch engine's
  ``lint=True`` and the ``python -m repro lint`` subcommand;
  ``CompiledResult.validate`` raises on its blocking rules.
* :mod:`repro.arch` — line / grid / Sycamore / hexagon / heavy-hex coupling
  graphs with synthetic noise calibration.
* :mod:`repro.ata` — structured all-to-all swap-network patterns.
* :mod:`repro.solver` — the depth-optimal A* solver for small instances.
* :mod:`repro.baselines` — Paulihedral-, QAIM-, 2QAN-, OLSQ- and
  SATMAP-like reference compilers.
* :mod:`repro.sim` — statevector simulation, noise substitution, and the
  end-to-end QAOA/COBYLA loop.
"""

__version__ = "1.0.0"

from .exceptions import (ArchitectureError, CompilationError, ReproError,
                         SolverError, SpecificationError, ValidationError)
from .ir import Circuit, Mapping, Op, validate_compiled


def compile_qaoa(*args, **kwargs):
    """Compile a permutable-operator program (lazy import of the compiler).

    See :func:`repro.compiler.compile_qaoa` for the full signature.
    """
    from .compiler import compile_qaoa as _compile

    return _compile(*args, **kwargs)


def compile_many(*args, **kwargs):
    """Batch-compile many job specs (lazy import of the batch engine).

    See :func:`repro.batch.compile_many` for the full signature.
    """
    from .batch import compile_many as _many

    return _many(*args, **kwargs)


def available_methods():
    """Names of every registered compiler method (paper + baselines).

    See :mod:`repro.pipeline.registry`; adding a method there makes it
    resolvable here, in ``compile_qaoa(method=...)``, in the batch
    engine, in sweeps, and on the CLI at once.
    """
    from .pipeline.registry import available_methods as _methods

    return _methods()


def lint_circuit(*args, **kwargs):
    """Statically analyze a compiled circuit (lazy import of the linter).

    See :func:`repro.lint.lint_circuit` for the full signature.
    """
    from .lint import lint_circuit as _lint

    return _lint(*args, **kwargs)


def lint_result(*args, **kwargs):
    """Statically analyze a :class:`CompiledResult` (lazy import).

    See :func:`repro.lint.lint_result` for the full signature.
    """
    from .lint import lint_result as _lint

    return _lint(*args, **kwargs)


_LAZY_PIPELINE_EXPORTS = (
    "CompilationContext", "Pass", "Pipeline", "MethodSpec",
    "register_method", "get_method", "build_pipeline",
)


def __getattr__(name):
    """Lazy re-exports of the pipeline core (PEP 562)."""
    if name in _LAZY_PIPELINE_EXPORTS:
        from . import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "compile_qaoa",
    "compile_many",
    "available_methods",
    "lint_circuit",
    "lint_result",
    *_LAZY_PIPELINE_EXPORTS,
    "Circuit",
    "Mapping",
    "Op",
    "validate_compiled",
    "ReproError",
    "ValidationError",
    "ArchitectureError",
    "CompilationError",
    "SolverError",
    "SpecificationError",
    "__version__",
]
