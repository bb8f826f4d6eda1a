"""Figure 26 — compilation time vs problem size.

Paper: random-0.3 QAOA graphs, 64 to 1024 qubits; compile time grows
near-linearly (~30 s at 1024 for the authors' implementation; pure Python
is slower by a constant factor, which is irrelevant to the scaling claim).

Shape check: doubling the qubit count must not blow the time up by more
than ~6x (quadratic would be 4x on the dominant term plus routing growth).
"""

import time

from benchmarks._common import full_scale, table
from repro.arch import heavyhex_for
from repro.compiler import compile_qaoa
from repro.problems import random_problem_graph


def _compute():
    sizes = [64, 128, 256, 512, 1024] if full_scale() else [32, 64, 128]
    rows = []
    times = []
    for n in sizes:
        problem = random_problem_graph(n, 0.3, seed=0)
        coupling = heavyhex_for(n)
        start = time.perf_counter()
        result = compile_qaoa(coupling, problem, method="hybrid")
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        rows.append([n, problem.n_edges, elapsed,
                     elapsed / n * 1000.0])
    table("fig26_compile_time",
          "Fig 26: compilation time vs QAOA graph size (heavy-hex)",
          ["qubits", "edges", "seconds", "ms/qubit"], rows)
    for prev, cur in zip(times, times[1:]):
        assert cur <= max(prev, 0.05) * 8, "compile time growing too fast"


def test_fig26_compile_time_scaling():
    _compute()
