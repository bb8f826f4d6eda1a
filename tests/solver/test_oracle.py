"""The exact solver as oracle: no paper method beats the optimum.

``solve_depth_optimal`` returns the minimum depth reachable from a given
initial mapping (Section 4).  The hybrid, greedy and ATA compilers are
heuristics over the same transition system, so compiled from that same
mapping none of them may come out shallower.  Baselines are left out:
they choose their own placement, which the fixed-mapping optimum does
not bound.
"""

import random

import pytest

from repro.arch import grid, line
from repro.compiler import compile_qaoa
from repro.ir.mapping import Mapping
from repro.problems import ProblemGraph
from repro.solver import solve_depth_optimal

DEVICES = [
    pytest.param(lambda: line(4), id="line4"),
    pytest.param(lambda: line(5), id="line5"),
    pytest.param(lambda: line(6), id="line6"),
    pytest.param(lambda: grid(2, 2), id="grid2x2"),
    pytest.param(lambda: grid(2, 3), id="grid2x3"),
]


@pytest.mark.parametrize("make_coupling", DEVICES)
def test_paper_methods_never_beat_the_optimum(make_coupling):
    coupling = make_coupling()
    n = coupling.n_qubits
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mapping = Mapping.trivial(n)
    for seed in range(12):
        rng = random.Random(seed)
        edges = sorted(rng.sample(pairs, rng.randint(1, len(pairs))))
        optimum = solve_depth_optimal(coupling, edges,
                                      initial_mapping=mapping)
        for method in ("hybrid", "greedy", "ata"):
            result = compile_qaoa(coupling, ProblemGraph(n, edges),
                                  method=method, initial_mapping=mapping)
            assert result.circuit.depth() >= optimum.depth, \
                (seed, method, edges)
