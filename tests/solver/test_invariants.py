"""The fast engine never changes the answer (ISSUE 4 satellite S4).

Three independent searchers must return identical optimal depths on the
paper's discovery-shaped instances:

* the rewritten A* (incremental heuristic + gate-maximal cycles + spare
  canonicalization),
* the same engine degraded to uniform-cost search (``use_heuristic=
  False`` — no heuristic to be wrong),
* the frozen pre-refactor solver (``tests/solver/reference.py``), and
* iterative-deepening A* (``strategy="idastar"``).

``minimize_swaps=True`` must additionally preserve the lexicographic
(depth, swaps) optimum of the reference implementation.

On the grid bi-clique the engine must also expand at least
``GRID_SPEEDUP_THRESHOLD`` times fewer nodes than the reference.  The
paper-scale discovery instances (line-6, grid-2x4, Sycamore-7q) are
checked against the reference's recorded depths and node counts, since
re-running the reference there takes minutes.
"""

import pytest

from repro.arch import grid, line
from repro.arch.coupling import CouplingGraph
from repro.arch.sycamore import sycamore
from repro.problems import biclique, clique, random_problem_graph
from repro.solver import solve_depth_optimal
from tests.solver.reference import solve_depth_optimal_reference

#: Node-expansion speedup over the reference the grid instances must clear.
GRID_SPEEDUP_THRESHOLD = 3.0


def sycamore_7q() -> CouplingGraph:
    """Connected 7-qubit fragment of the 2x4 Sycamore tile (drop qubit 4)."""
    tile = sycamore(2, 4)
    keep = [0, 1, 2, 3, 5, 6, 7]
    relabel = {phys: index for index, phys in enumerate(keep)}
    edges = sorted((relabel[u], relabel[v]) for u, v in tile.edges
                   if u in relabel and v in relabel)
    return CouplingGraph(7, edges, name="sycamore-7q", kind="sycamore")


INSTANCES = [
    pytest.param("line4-clique4", line(4), clique(4), id="line4-clique4"),
    pytest.param("line5-clique5", line(5), clique(5), id="line5-clique5"),
    pytest.param("2x3-biclique", grid(2, 3), biclique(3, 3),
                 id="2x3-biclique"),
    pytest.param("syc7-clique4", sycamore_7q(), clique(4),
                 id="syc7-clique4"),
]


@pytest.mark.parametrize("name,coupling,problem", INSTANCES)
def test_astar_ucs_and_reference_agree(name, coupling, problem):
    fast = solve_depth_optimal(coupling, problem.edges)
    ucs = solve_depth_optimal(coupling, problem.edges, use_heuristic=False)
    ref = solve_depth_optimal_reference(coupling, problem.edges)
    assert fast.depth == ucs.depth == ref.depth
    # The prunings must only ever *shrink* the search.
    assert fast.stats.nodes_expanded <= ref.stats.nodes_expanded
    if name == "2x3-biclique":
        assert (ref.stats.nodes_expanded
                >= GRID_SPEEDUP_THRESHOLD * fast.stats.nodes_expanded)


#: The paper's discovery instances with the reference's depth and node
#: count, recorded from one full run of the reference solver (about four
#: minutes, three of them on the grid).
RECORDED_FULL = [
    pytest.param(line(6), clique(6), 10, 56_976, id="line6-clique6"),
    pytest.param(grid(2, 4), biclique(4, 4), 7, 53_328,
                 id="2x4-biclique"),
    pytest.param(sycamore_7q(), clique(5), 9, 10_217, id="syc7-clique5"),
]


@pytest.mark.parametrize("coupling,problem,ref_depth,ref_nodes",
                         RECORDED_FULL)
def test_paper_instances_match_recorded_reference(coupling, problem,
                                                  ref_depth, ref_nodes):
    is_grid = coupling.kind == "grid"
    # On the grid, the budget makes a search that loses the bar fail fast
    # with SolverError instead of running for minutes.
    budget = (int(ref_nodes // GRID_SPEEDUP_THRESHOLD) if is_grid
              else ref_nodes)
    fast = solve_depth_optimal(coupling, problem.edges, max_nodes=budget)
    assert fast.depth == ref_depth
    assert fast.stats.nodes_expanded <= ref_nodes
    if is_grid:
        assert ref_nodes >= GRID_SPEEDUP_THRESHOLD * fast.stats.nodes_expanded


@pytest.mark.parametrize("name,coupling,problem", INSTANCES)
def test_idastar_agrees_with_astar(name, coupling, problem):
    fast = solve_depth_optimal(coupling, problem.edges)
    ida = solve_depth_optimal(coupling, problem.edges, strategy="idastar")
    assert ida.depth == fast.depth
    assert ida.stats.strategy == "idastar"


@pytest.mark.parametrize("name,coupling,problem", INSTANCES)
def test_minimize_swaps_matches_reference(name, coupling, problem):
    fast = solve_depth_optimal(coupling, problem.edges, minimize_swaps=True)
    ref = solve_depth_optimal_reference(coupling, problem.edges,
                                        minimize_swaps=True)
    assert fast.depth == ref.depth
    assert fast.circuit.swap_count == ref.circuit.swap_count


@pytest.mark.parametrize("seed", range(6))
def test_random_sparse_instances_agree(seed):
    problem = random_problem_graph(5, 0.5, seed=seed)
    coupling = grid(2, 3)
    fast = solve_depth_optimal(coupling, problem.edges)
    ref = solve_depth_optimal_reference(coupling, problem.edges)
    ida = solve_depth_optimal(coupling, problem.edges, strategy="idastar")
    assert fast.depth == ref.depth == ida.depth


def test_solver_telemetry_counters_populated():
    from repro.pipeline.registry import get_method

    result = solve_depth_optimal(line(4), clique(4).edges)
    assert result.stats.nodes_expanded == result.nodes_expanded > 0
    assert result.stats.nodes_generated > 0
    assert result.stats.heuristic_evals > 0
    assert result.stats.wall_time_s > 0
    assert result.stats.heap_peak > 0
    # The ``optimal`` method runs the same search from the same trivial
    # mapping and copies its counters into the compile's own record.
    compiled = get_method("optimal").compile(line(4), clique(4))
    solver = compiled.extra["solver"]
    counts = result.stats.as_dict()
    del counts["wall_time_s"]
    assert solver["depth"] == result.depth
    assert {key: solver[key] for key in counts} == counts
