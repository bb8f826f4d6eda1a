"""``repro.ata`` sits below the compiler: it imports neither
``repro.compiler`` nor ``repro.pipeline``, at module top or lazily.

The pattern executor, the range detector and the candidate simulator
all live here, and the pipeline passes call down into them; an import
back up would make the suffix executor depend on its own callers.
"""

import ast
import pathlib

import pytest

ATA = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "ata"
FORBIDDEN = ("repro.compiler", "repro.pipeline")


def imported_modules(path):
    """Absolute names of every module ``path`` imports, anywhere."""
    package = ["repro", "ata"]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


@pytest.mark.parametrize("path", sorted(ATA.glob("*.py")),
                         ids=lambda p: p.name)
def test_ata_imports_nothing_from_compiler_or_pipeline(path):
    bad = [name for name in imported_modules(path)
           if any(name == f or name.startswith(f + ".")
                  for f in FORBIDDEN)]
    assert bad == []
