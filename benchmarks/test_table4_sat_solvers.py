"""Table 4 — comparison with SAT-solver-based OLSQ and SATMAP on 2D grids.

Paper: tiny random graphs "10-2" .. "15-4" (n qubits, density/10) on the
smallest fitting grid.  Expected shape: ours compiles orders of magnitude
faster with comparable depth; the search-based tools edge out gate count
on some instances.
"""

from benchmarks._common import table
from repro.arch import square_grid_for
from repro.baselines import compile_olsq, compile_satmap
from repro.compiler import compile_qaoa
from repro.problems import table4_instances


def _compute():
    rows = []
    speed_ok = True
    for name, problem in table4_instances():
        coupling = square_grid_for(problem.n_vertices)
        ours = compile_qaoa(coupling, problem, method="hybrid")
        ours.validate(coupling, problem)
        olsq = compile_olsq(coupling, problem, exact_node_budget=40_000,
                            beam_width=128, children_per_state=96)
        olsq.validate(coupling, problem)
        satmap = compile_satmap(coupling, problem)
        satmap.validate(coupling, problem)
        rows.append([
            name,
            ours.depth(), olsq.depth(), satmap.depth(),
            ours.gate_count, olsq.gate_count, satmap.gate_count,
            ours.wall_time_s, olsq.wall_time_s, satmap.wall_time_s,
        ])
        speed_ok &= ours.wall_time_s <= olsq.wall_time_s + 1.0
    table("table4_sat_solvers",
          "Table 4: Ours vs OLSQ-like vs SATMAP-like (2D grid)",
          ["graph", "ours D", "olsq D", "satmap D",
           "ours CX", "olsq CX", "satmap CX",
           "ours s", "olsq s", "satmap s"],
          rows)
    assert speed_ok, "ours should compile faster than the search baselines"


def test_table4_sat_solver_comparison():
    _compute()
