#!/usr/bin/env python
"""CI smoke: the p-layer program path end to end (ISSUE 7).

Compiles the NNN-Ising-16 Hamiltonian-simulation benchmark on heavy-hex
into a p=4 program with the noise-aware selector (ESP in cost F; the
heavy-hex pattern's non-disjoint cycles are swept under noise), asserts the reversed-layer cancellation closed the
net permutation, lints the program per layer (zero errors required),
validates the semantic contract and checks that validation and lint
agree on it (validation is lint's blocking rules, so a disagreement is
a bug), and drives the compile -> simulate -> TVD loop with a
2-iteration COBYLA optimisation — a fast end-to-end crossing of the
layered-program path.

Usage::

    python scripts/smoke_qaoa.py
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.arch import NoiseModel, architecture_for  # noqa: E402
from repro.compiler import compile_qaoa  # noqa: E402
from repro.exceptions import ValidationError  # noqa: E402
from repro.lint import BLOCKING_RULES, lint_result  # noqa: E402
from repro.problems import nnn_ising_1d  # noqa: E402
from repro.problems.qaoa import QaoaProblem  # noqa: E402
from repro.sim import QaoaRunner  # noqa: E402

LAYERS = 4
N_LOGICAL = 16
GAMMA = 0.4


def main() -> int:
    failures = []
    problem = nnn_ising_1d(N_LOGICAL)
    coupling = architecture_for("heavyhex", N_LOGICAL)
    noise = NoiseModel(coupling, seed=0)

    result = compile_qaoa(coupling, problem, method="hybrid", noise=noise,
                          gamma=GAMMA, layers=LAYERS)
    program = result.program
    print(f"compiled {problem.name} on {coupling.name}: {program!r}")
    if program is None or program.p != LAYERS:
        failures.append(f"expected a p={LAYERS} program on the result")
    elif not program.net_permutation_is_identity:
        failures.append("even-depth program did not cancel its permutation")

    try:
        result.validate(coupling, problem)
        validated = True
        print(f"semantic validation ok ({len(program.layers)} layers "
              "checked, mapping provenance included)")
    except ValidationError as exc:
        validated = False
        failures.append(f"validation rejected the program: {exc}")

    report = lint_result(result, coupling, problem)
    blocking = [d for d in report.diagnostics if d.code in BLOCKING_RULES]
    if validated == bool(blocking):
        failures.append(
            f"result.validate {'accepted' if validated else 'rejected'} "
            f"the program but lint_result found {len(blocking)} blocking "
            f"diagnostic(s)")
    counts = report.counts()
    print(f"lint: {counts['error']} errors / {counts['warning']} warnings "
          f"across {len(program.layers)} layers")
    if not report.ok:
        for diagnostic in report.errors:
            print(f"  {diagnostic.location()}: {diagnostic.message}")
        failures.append("program lint reported errors")

    runner = QaoaRunner(QaoaProblem(problem), result, noise=noise,
                        shots=2000, seed=0)
    value = runner.tvd_vs_ideal([GAMMA] * LAYERS, [0.3] * LAYERS)
    print(f"TVD vs ideal at fixed angles: {value:.4f} (esp={runner.esp:.4f})")
    if not 0.0 <= value <= 1.0:
        failures.append(f"TVD {value} out of range")

    trace = runner.optimize(max_rounds=2)
    print(f"COBYLA smoke: {len(trace.rounds)} rounds, "
          f"best energy {trace.best_energy:.4f}")
    if not trace.rounds:
        failures.append("optimizer executed no rounds")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
