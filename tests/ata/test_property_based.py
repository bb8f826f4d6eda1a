"""Property-based tests over the pattern/executor stack."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import grid, line
from repro.ata import ata_suffix, get_pattern
from repro.ir.mapping import Mapping
from repro.ir.validate import validate_compiled
from repro.problems import ProblemGraph


def edges_strategy(n):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda t: t[0] != t[1])
    return st.lists(pair, max_size=n * 2, unique_by=lambda t: frozenset(t))


@settings(max_examples=40, deadline=None)
@given(edges_strategy(8))
def test_line_executor_valid_for_any_problem_graph(edges):
    coupling = line(8)
    mapping = Mapping.trivial(8)
    circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping, edges,
                            use_range_detection=False)
    validate_compiled(circuit, coupling.edges, mapping, edges)


@settings(max_examples=30, deadline=None)
@given(edges_strategy(9))
def test_grid_executor_valid_for_any_problem_graph(edges):
    coupling = grid(3, 3)
    mapping = Mapping.trivial(9)
    circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping, edges,
                            use_range_detection=False)
    validate_compiled(circuit, coupling.edges, mapping, edges)


@settings(max_examples=25, deadline=None)
@given(edges_strategy(8), st.permutations(list(range(8))))
def test_line_executor_valid_for_any_initial_mapping(edges, perm):
    coupling = line(8)
    mapping = Mapping(perm, 8)
    circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping, edges,
                            use_range_detection=False)
    validate_compiled(circuit, coupling.edges, mapping, edges)


@settings(max_examples=25, deadline=None)
@given(edges_strategy(10))
def test_hybrid_compiler_valid_for_any_problem_graph(edges):
    from repro.compiler import compile_qaoa

    coupling = line(10)
    problem = ProblemGraph(10, edges)
    result = compile_qaoa(coupling, problem, method="hybrid")
    result.validate(coupling, problem)


@settings(max_examples=25, deadline=None)
@given(edges_strategy(8))
def test_depth_never_exceeds_rigid_pattern_bound(edges):
    """Executor depth for a sub-clique never exceeds the clique schedule."""
    from repro.problems import clique

    coupling = line(8)
    mapping = Mapping.trivial(8)
    pattern = get_pattern(coupling)
    sub, _ = ata_suffix(coupling, pattern, mapping, edges,
                        use_range_detection=False)
    full, _ = ata_suffix(coupling, pattern, mapping, clique(8).edges,
                         use_range_detection=False)
    assert sub.depth() <= full.depth()
