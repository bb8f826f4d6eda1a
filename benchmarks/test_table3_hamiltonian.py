"""Table 3 — 2-local Hamiltonian simulation vs 2QAN on 64-qubit heavy-hex.

Paper: NNN 1D-Ising / 2D-XY / 3D-Heisenberg, ours ahead of 2QAN in both
depth and CX count.
"""

from benchmarks._common import table
from repro.arch import heavyhex_for
from repro.baselines import compile_twoqan
from repro.compiler import compile_qaoa
from repro.problems import hamiltonian_benchmarks


def _compute():
    rows = []
    wins = 0
    for problem in hamiltonian_benchmarks():
        coupling = heavyhex_for(problem.n_vertices)
        ours = compile_qaoa(coupling, problem, method="hybrid")
        ours.validate(coupling, problem)
        twoqan = compile_twoqan(coupling, problem)
        twoqan.validate(coupling, problem)
        rows.append([problem.name,
                     ours.depth(), twoqan.depth(),
                     ours.gate_count, twoqan.gate_count])
        wins += (ours.depth() <= twoqan.depth()
                 and ours.gate_count <= twoqan.gate_count * 1.05)
    table("table3_hamiltonian",
          "Table 3: 2-local Hamiltonian at 64-qubit heavy-hex",
          ["model", "ours D", "2qan D", "ours CX", "2qan CX"], rows)
    assert wins >= 2, "ours should lead 2QAN on most Hamiltonian models"


def test_table3_hamiltonian():
    _compute()
