"""Tests for initial placement strategies."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._telemetry import cache_info, clear_caches
from repro.arch import (CouplingGraph, NoiseModel, grid, heavyhex, line,
                        sycamore)
from repro.baselines import quadratic_initial_mapping
from repro.compiler import mapping as placement_module
from repro.compiler.mapping import (degree_placement, mapping_cost,
                                    noise_aware_placement,
                                    quadratic_placement, trivial_placement)
from repro.exceptions import SpecificationError
from repro.ir.mapping import Mapping
from repro.problems import (ProblemGraph, clique, random_problem_graph,
                            regular_problem_graph)


def reference_quadratic_placement(coupling, problem, iterations=None,
                                  seed=0, initial=None):
    """The swap-and-revert search ``quadratic_placement`` must reproduce.

    Each proposal sums both endpoints' edge lengths before and after
    applying the swap and undoes it when the total grew.
    """
    rng = random.Random(seed)
    mapping = (initial.copy() if initial is not None
               else degree_placement(coupling, problem))
    dist = coupling.distance_matrix.tolist()
    n = problem.n_vertices
    if iterations is None:
        iterations = min(8 * n * n, 60_000)

    adjacency = {v: problem.neighbors(v) for v in range(n)}
    log_to_phys = mapping.log_to_phys

    def vertex_cost(v, position):
        row = dist[position]
        return sum(row[log_to_phys[w]] for w in adjacency[v])

    for _ in range(iterations):
        a = rng.randrange(n)
        pa = mapping.physical(a)
        pb = rng.choice(coupling.neighbors(pa))
        b = mapping.logical(pb)
        before = vertex_cost(a, pa) + (vertex_cost(b, pb)
                                       if b is not None else 0)
        mapping.swap_physical(pa, pb)
        after = vertex_cost(a, pb) + (vertex_cost(b, pa)
                                      if b is not None else 0)
        if after - before > 0:
            mapping.swap_physical(pa, pb)  # revert
    return mapping


# A problem smaller than the device leaves spare qubits, so proposals
# also move a logical qubit onto an empty site.
ARCHITECTURES = [line(9), grid(3, 4), heavyhex(2, 6), sycamore(4, 4)]


@pytest.fixture
def setting():
    coupling = grid(4, 4)
    problem = random_problem_graph(10, 0.4, seed=3)
    return coupling, problem


class TestTrivial:
    def test_identity(self, setting):
        coupling, problem = setting
        m = trivial_placement(coupling, problem)
        assert m.log_to_phys == list(range(10))


class TestDegree:
    def test_bijective(self, setting):
        coupling, problem = setting
        m = degree_placement(coupling, problem)
        assert len(set(m.log_to_phys)) == problem.n_vertices

    def test_highest_degree_vertex_central(self, setting):
        coupling, problem = setting
        m = degree_placement(coupling, problem)
        degrees = problem.degrees()
        busiest = max(range(10), key=lambda v: degrees[v])
        home = m.physical(busiest)
        ecc = coupling.distance_matrix.max(axis=1)
        assert ecc[home] == ecc.min()


class TestQuadratic:
    def test_never_worse_than_degree(self, setting):
        coupling, problem = setting
        base = mapping_cost(coupling, degree_placement(coupling, problem),
                            problem)
        improved = mapping_cost(
            coupling, quadratic_placement(coupling, problem), problem)
        assert improved <= base

    def test_seed_reproducible(self, setting):
        coupling, problem = setting
        a = quadratic_placement(coupling, problem, seed=4)
        b = quadratic_placement(coupling, problem, seed=4)
        assert a.log_to_phys == b.log_to_phys

    def test_single_qubit_architecture_keeps_start_mapping(self):
        coupling, problem = line(1), ProblemGraph(1, [])
        assert quadratic_placement(coupling, problem).log_to_phys == [0]

    def test_single_qubit_architecture_compiles(self):
        from repro.compiler import compile_qaoa
        coupling, problem = line(1), ProblemGraph(1, [])
        result = compile_qaoa(coupling, problem)
        result.validate(coupling, problem)
        assert result.circuit.depth() == 0


class TestCapacity:
    """Every placement names both sizes when the problem does not fit."""

    @pytest.mark.parametrize("place", [
        trivial_placement, degree_placement, quadratic_placement,
        lambda coupling, problem: noise_aware_placement(
            coupling, problem, NoiseModel(coupling, seed=1)),
    ], ids=["trivial", "degree", "quadratic", "noise"])
    def test_too_many_vertices(self, place):
        with pytest.raises(SpecificationError,
                           match="5 vertices but line-3 has only 3 qubits"):
            place(line(3), clique(5))


NOT_A_COUNT = [2.5, "10", -5, True, False]


class TestIterations:
    @pytest.mark.parametrize("iterations", NOT_A_COUNT)
    def test_rejects_non_count(self, setting, iterations):
        coupling, problem = setting
        with pytest.raises(SpecificationError, match="iterations"):
            quadratic_placement(coupling, problem, iterations=iterations)

    @pytest.mark.parametrize("iterations", NOT_A_COUNT)
    def test_2qan_compile_rejects_non_count(self, setting, iterations):
        from repro.compiler import compile_qaoa
        coupling, problem = setting
        with pytest.raises(SpecificationError, match="iterations"):
            compile_qaoa(coupling, problem, method="2qan",
                         iterations=iterations)


def draw_below(getrandbits, width):
    """The draw ``quadratic_placement`` inlines for randrange/choice."""
    k = width.bit_length()
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return r


class TestSampler:
    """The inlined getrandbits draw is the stdlib's stream on this Python.

    ``quadratic_placement`` relies on CPython drawing ``randrange(w)`` and
    ``choice(seq)`` as ``width.bit_length()`` bits redrawn while ``>= w``;
    comparing the generator states also pins how many bits each used.
    """

    WIDTHS = list(range(1, 71))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_randrange(self, seed):
        stdlib, inlined = random.Random(seed), random.Random(seed)
        for width in self.WIDTHS * 3:
            assert draw_below(inlined.getrandbits, width) \
                == stdlib.randrange(width)
        assert inlined.getstate() == stdlib.getstate()

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_choice(self, seed):
        stdlib, inlined = random.Random(seed), random.Random(seed)
        for width in self.WIDTHS * 3:
            sites = range(width)
            assert sites[draw_below(inlined.getrandbits, width)] \
                == stdlib.choice(sites)
        assert inlined.getstate() == stdlib.getstate()

    def test_isolated_occupied_site_raises_like_choice(self):
        # Qubit 2 has no coupling; choice(()) raises IndexError there.
        coupling = CouplingGraph(3, [(0, 1)])
        problem = ProblemGraph(3, [(0, 2)])
        initial = Mapping([0, 1, 2], 3)
        for place in (quadratic_placement, reference_quadratic_placement):
            with pytest.raises(IndexError):
                place(coupling, problem, iterations=50, initial=initial)


def mixed_problem():
    """A 14-vertex clique (complement sums) and a sparse 12-vertex fringe."""
    core = [(u, v) for u in range(14) for v in range(u + 1, 14)]
    fringe = [(v, v - 14) for v in range(14, 26)]
    fringe += [(v, v + 1) for v in range(14, 26, 2)]
    return ProblemGraph(26, core + fringe)


def uses_complement(problem):
    n = problem.n_vertices
    degrees = problem.degrees()
    return [degrees[v] > (n - 1) // 2 for v in range(n)]


class TestQuadraticMatchesReference:
    """The cost-change search returns the swap-and-revert search's mapping."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           arch=st.sampled_from(ARCHITECTURES),
           density=st.one_of(st.just(0.0), st.just(1.0),
                             st.floats(0.0, 1.0)),
           graph_seed=st.integers(0, 2**16),
           seed=st.integers(0, 2**32),
           iterations=st.sampled_from([0, 1, 25, None]),
           with_initial=st.booleans())
    def test_identical_mapping(self, data, arch, density, graph_seed, seed,
                               iterations, with_initial):
        n = data.draw(st.integers(1, arch.n_qubits), label="n")
        problem = random_problem_graph(n, density, seed=graph_seed)
        initial = None
        if with_initial:
            sites = data.draw(st.permutations(range(arch.n_qubits)),
                              label="sites")
            initial = Mapping(sites[:n], arch.n_qubits)
        untouched = initial.copy() if initial is not None else None

        got = quadratic_placement(arch, problem, iterations=iterations,
                                  seed=seed, initial=initial)
        want = reference_quadratic_placement(
            arch, problem, iterations=iterations, seed=seed, initial=initial)
        assert got.log_to_phys == want.log_to_phys
        assert got.phys_to_log == want.phys_to_log
        assert initial == untouched

    @pytest.mark.parametrize("coupling, problem", [
        (grid(8, 8), random_problem_graph(64, 0.3, seed=5)),
        (heavyhex(4, 10), regular_problem_graph(48, 3, seed=2)),
    ], ids=["grid-8x8-rand-0.3", "heavyhex-4x10-reg3"])
    def test_identical_at_default_budget(self, coupling, problem):
        got = quadratic_placement(coupling, problem, seed=3)
        want = reference_quadratic_placement(coupling, problem, seed=3)
        assert got == want

    # Complement scoring: a clique filling the device (every vertex uses
    # its complement, which is empty), a dense graph with spare sites
    # (moves onto them update ``reach``) and a graph mixing both sums.
    @pytest.mark.parametrize("coupling, problem", [
        (grid(3, 4), clique(12)),
        (sycamore(4, 4), clique(16)),
        (heavyhex(2, 6), random_problem_graph(12, 0.9, seed=4)),
        (grid(6, 6), mixed_problem()),
    ], ids=["grid-3x4-clique", "sycamore-4x4-clique",
            "heavyhex-2x6-rand-0.9", "grid-6x6-mixed"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_identical_with_complement(self, coupling, problem, seed):
        dense = uses_complement(problem)
        assert any(dense)
        got = quadratic_placement(coupling, problem, seed=seed)
        want = reference_quadratic_placement(coupling, problem, seed=seed)
        assert got.log_to_phys == want.log_to_phys
        assert got.phys_to_log == want.phys_to_log

    def test_mixed_problem_is_mixed(self):
        dense = uses_complement(mixed_problem())
        assert any(dense) and not all(dense)

    @pytest.mark.parametrize("coupling, problem", [
        (sycamore(4, 4), clique(12)),
        (heavyhex(2, 6), random_problem_graph(10, 0.5, seed=1)),
    ], ids=["sycamore-4x4-clique", "heavyhex-2x6-rand-0.5"])
    def test_identical_at_2qan_budget(self, coupling, problem):
        n = problem.n_vertices
        got = quadratic_initial_mapping(coupling, problem, seed=9)
        want = reference_quadratic_placement(
            coupling, problem, iterations=min(20 * n * n, 200_000), seed=9)
        assert got == want


# Devices of 36-70 qubits: problems of 30 or more vertices at density
# 0.3-0.6 give most vertices more terms than ``_ROW_TERMS``, so the
# settled search scores them from distance-sum rows.
ROW_ARCHITECTURES = [grid(6, 6), grid(7, 8), heavyhex(3, 10),
                     heavyhex(4, 14), sycamore(6, 8), sycamore(8, 8)]
WINDOW = placement_module._WINDOW


def place_counting_rows(place, coupling, problem, **kwargs):
    """``place``'s mapping and how many times it built distance-sum rows.

    The placement memo is cleared first, so the search always runs.
    """
    clear_caches()
    with mock.patch.object(placement_module, "_sum_rows",
                           wraps=placement_module._sum_rows) as spy:
        mapping = place(coupling, problem, **kwargs)
    return mapping, spy.call_count


def row_mixed_problem():
    """44 vertices of every kind the settled search scores.

    A 24-vertex clique sums its non-neighbours from rows, a hub adjacent
    to all but eight vertices sums its few non-neighbours directly,
    vertices 24-29 (11 neighbours each) sum their neighbours from rows
    and a sparse tail sums its neighbours directly.  The tail ends in
    four isolated vertices: every move of one onto a spare site is
    kept, so the settled search keeps changing ``reach``.
    """
    core = [(u, v) for u in range(24) for v in range(u + 1, 24)]
    hub = [(0, v) for v in range(24, 36)]
    middle = [(v, c) for v in range(24, 30) for c in range(v - 20, v - 10)]
    tail = [(v, v + 1) for v in range(30, 39)]
    return ProblemGraph(44, core + hub + middle + tail)


def vertex_kinds(problem):
    """The (complement, row) kind of each vertex, as the search picks it."""
    n = problem.n_vertices
    degrees = problem.degrees()
    kinds = []
    for v in range(n):
        complement = degrees[v] > (n - 1) // 2
        terms = n - 1 - degrees[v] if complement else degrees[v]
        kinds.append((complement, terms > placement_module._ROW_TERMS))
    return kinds


class TestRowsMatchReference:
    """Scores read from distance-sum rows give the reference's mapping."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           arch=st.sampled_from(ROW_ARCHITECTURES),
           density=st.floats(0.3, 0.6),
           graph_seed=st.integers(0, 2**16),
           seed=st.integers(0, 2**32),
           iterations=st.sampled_from([WINDOW + 1, 2 * WINDOW + 7, None]),
           with_initial=st.booleans())
    def test_identical_mapping(self, data, arch, density, graph_seed, seed,
                               iterations, with_initial):
        n = data.draw(st.integers(30, arch.n_qubits), label="n")
        problem = random_problem_graph(n, density, seed=graph_seed)
        initial = None
        if with_initial:
            sites = data.draw(st.permutations(range(arch.n_qubits)),
                              label="sites")
            initial = Mapping(sites[:n], arch.n_qubits)

        got, builds = place_counting_rows(
            quadratic_placement, arch, problem, iterations=iterations,
            seed=seed, initial=initial)
        want = reference_quadratic_placement(
            arch, problem, iterations=iterations, seed=seed, initial=initial)
        assert builds == 1
        assert got.log_to_phys == want.log_to_phys
        assert got.phys_to_log == want.phys_to_log

    # Spare sites (fewer vertices than qubits) move vertices onto empty
    # sites, which updates ``reach`` once rows are kept.
    @pytest.mark.parametrize("coupling, problem", [
        (grid(6, 6), random_problem_graph(36, 0.3, seed=1)),
        (grid(7, 8), random_problem_graph(50, 0.6, seed=2)),
        (heavyhex(4, 14), random_problem_graph(60, 0.45, seed=3)),
        (sycamore(8, 8), random_problem_graph(64, 0.5, seed=4)),
        (sycamore(6, 8), row_mixed_problem()),
        (grid(8, 8), row_mixed_problem()),
    ], ids=["grid-6x6-rand-0.3", "grid-7x8-rand-0.6-spare",
            "heavyhex-4x14-rand-0.45-spare", "sycamore-8x8-rand-0.5",
            "sycamore-6x8-row-mixed-spare", "grid-8x8-row-mixed-spare"])
    @pytest.mark.parametrize("iterations, rows", [
        (WINDOW, 0), (WINDOW + 1, 1), (None, 1)],
        ids=["ends-at-switch", "one-past-switch", "default-budget"])
    def test_identical_either_side_of_switch(self, coupling, problem,
                                             iterations, rows):
        got, builds = place_counting_rows(
            quadratic_placement, coupling, problem, iterations=iterations,
            seed=5)
        want = reference_quadratic_placement(
            coupling, problem, iterations=iterations, seed=5)
        assert builds == rows
        assert got == want

    def test_identical_from_initial_mapping(self):
        coupling, problem = grid(7, 8), row_mixed_problem()
        sites = list(range(coupling.n_qubits))
        random.Random(8).shuffle(sites)
        initial = Mapping(sites[:problem.n_vertices], coupling.n_qubits)
        got, builds = place_counting_rows(
            quadratic_placement, coupling, problem, seed=2, initial=initial)
        want = reference_quadratic_placement(coupling, problem, seed=2,
                                             initial=initial)
        assert builds == 1
        assert got == want

    def test_row_mixed_problem_is_mixed(self):
        kinds = set(vertex_kinds(row_mixed_problem()))
        assert kinds == {(False, False), (False, True), (True, False),
                         (True, True)}

    @pytest.mark.parametrize("coupling, problem", [
        (heavyhex(3, 10), random_problem_graph(36, 0.4, seed=6)),
        (grid(7, 8), row_mixed_problem()),
    ], ids=["heavyhex-3x10-rand-0.4", "grid-7x8-row-mixed"])
    def test_identical_at_2qan_budget(self, coupling, problem):
        n = problem.n_vertices
        got, builds = place_counting_rows(
            quadratic_initial_mapping, coupling, problem, seed=9)
        want = reference_quadratic_placement(
            coupling, problem, iterations=min(20 * n * n, 200_000), seed=9)
        assert builds == 1
        assert got == want


def placement_counts():
    info = cache_info()["placement"]
    return info["hits"], info["misses"]


class TestPlacementMemo:
    """A repeated search is answered from the process-local memo."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           arch=st.sampled_from(ARCHITECTURES),
           density=st.floats(0.0, 1.0),
           graph_seed=st.integers(0, 2**16),
           seed=st.integers(0, 2**32),
           iterations=st.sampled_from([0, 1, 25, 300, None]),
           with_initial=st.booleans())
    def test_hit_equals_fresh_search(self, data, arch, density, graph_seed,
                                     seed, iterations, with_initial):
        n = data.draw(st.integers(1, arch.n_qubits), label="n")
        problem = random_problem_graph(n, density, seed=graph_seed)
        initial = None
        if with_initial:
            sites = data.draw(st.permutations(range(arch.n_qubits)),
                              label="sites")
            initial = Mapping(sites[:n], arch.n_qubits)

        def place():
            return quadratic_placement(arch, problem, iterations=iterations,
                                       seed=seed, initial=initial)

        clear_caches()
        first = place()
        hit = place()
        assert placement_counts() == (1, 1)
        clear_caches()
        fresh = place()
        assert placement_counts() == (0, 1)
        assert hit == first == fresh
        assert hit is not first

    def test_key_covers_every_input(self):
        coupling, problem = grid(3, 4), random_problem_graph(10, 0.4, seed=3)
        other_problem = random_problem_graph(10, 0.4, seed=4)
        initial = Mapping(list(range(9, -1, -1)), coupling.n_qubits)
        clear_caches()
        quadratic_placement(coupling, problem)
        for args, kwargs in [
                ((line(12), problem), {}),
                ((coupling, other_problem), {}),
                ((coupling, problem), {"iterations": 7}),
                ((coupling, problem), {"seed": 1}),
                ((coupling, problem), {"initial": initial})]:
            quadratic_placement(*args, **kwargs)
        assert placement_counts() == (0, 6)
        quadratic_placement(coupling, problem,
                            iterations=min(8 * 10 * 10, 60_000))
        assert placement_counts() == (1, 6)

    def test_mutating_a_result_leaves_the_memo_alone(self, setting):
        coupling, problem = setting
        clear_caches()
        first = quadratic_placement(coupling, problem)
        want = first.copy()
        first.swap_physical(first.physical(0), first.physical(1))
        first.log_to_phys.append(99)
        hit = quadratic_placement(coupling, problem)
        assert placement_counts() == (1, 1)
        assert hit == want
        hit.swap_physical(hit.physical(2), hit.physical(3))
        assert quadratic_placement(coupling, problem) == want

    @pytest.mark.parametrize("iterations", [True, 1.0])
    def test_bad_iterations_raise_on_a_matching_entry(self, setting,
                                                      iterations):
        coupling, problem = setting
        clear_caches()
        quadratic_placement(coupling, problem, iterations=1)
        with pytest.raises(SpecificationError, match="iterations"):
            quadratic_placement(coupling, problem, iterations=iterations)
        assert placement_counts() == (0, 1)

    def test_bad_initial_raises_on_a_matching_entry(self, setting):
        coupling, problem = setting
        sites = list(range(problem.n_vertices))
        clear_caches()
        quadratic_placement(coupling, problem,
                            initial=Mapping(sites, coupling.n_qubits))
        with pytest.raises(SpecificationError, match="covers 20 physical"):
            quadratic_placement(coupling, problem, initial=Mapping(sites, 20))
        with pytest.raises(SpecificationError, match="must be a Mapping"):
            quadratic_placement(coupling, problem, initial=sites)
        assert placement_counts() == (0, 1)

    def test_os_seeded_search_is_not_memoized(self, setting):
        coupling, problem = setting
        clear_caches()
        quadratic_placement(coupling, problem, seed=None)
        quadratic_placement(coupling, problem, seed=None)
        assert cache_info()["placement"] == {"hits": 0, "misses": 0,
                                             "size": 0}

    def test_memo_is_capped(self, setting):
        coupling, problem = setting
        cap = placement_module._PLACEMENT_CACHE_CAP
        clear_caches()
        for seed in range(cap + 3):
            quadratic_placement(coupling, problem, iterations=1, seed=seed)
        assert cache_info()["placement"]["size"] == cap
        quadratic_placement(coupling, problem, iterations=1, seed=cap + 2)
        quadratic_placement(coupling, problem, iterations=1, seed=0)
        assert placement_counts() == (1, cap + 4)

    def test_threads_fill_past_the_cap(self, setting):
        """Jobs on the thread executor share the memo; concurrent
        evictions at the cap neither raise nor overfill it."""
        coupling, problem = setting
        cap = placement_module._PLACEMENT_CACHE_CAP
        seeds = [seed % (3 * cap) for seed in range(10_000)]

        def place(seed):
            return quadratic_placement(coupling, problem, iterations=0,
                                       seed=seed).log_to_phys

        clear_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                found = dict(zip(seeds, pool.map(place, seeds, timeout=120)))
        finally:
            sys.setswitchinterval(interval)
        assert cache_info()["placement"]["size"] <= cap
        clear_caches()
        assert found == {seed: place(seed) for seed in found}


class TestInitialMappingShape:
    """A caller's mapping that does not fit gets a typed error."""

    PROBLEM = random_problem_graph(5, 0.5, seed=1)

    def test_placement_rejects_too_few_logical_qubits(self):
        with pytest.raises(SpecificationError,
                           match="places 3 logical qubits but the problem "
                                 "has 5 vertices"):
            quadratic_placement(grid(3, 3), self.PROBLEM,
                                initial=Mapping([0, 1, 2], 9))

    def test_placement_rejects_another_device_size(self):
        with pytest.raises(SpecificationError,
                           match="covers 12 physical qubits but grid-3x3 "
                                 "has 9"):
            quadratic_placement(grid(3, 3), self.PROBLEM,
                                initial=Mapping([0, 1, 2, 3, 4], 12))

    @pytest.mark.parametrize("method", ["hybrid", "greedy", "ata"])
    def test_compile_rejects_too_few_logical_qubits(self, method):
        from repro.compiler import compile_qaoa
        with pytest.raises(SpecificationError,
                           match="places 3 logical qubits"):
            compile_qaoa(grid(3, 3), self.PROBLEM, method=method,
                         initial_mapping=Mapping([0, 1, 2], 9))

    @pytest.mark.parametrize("method", ["hybrid", "greedy", "ata"])
    def test_compile_rejects_another_device_size(self, method):
        from repro.compiler import compile_qaoa
        with pytest.raises(SpecificationError,
                           match="covers 12 physical qubits"):
            compile_qaoa(grid(3, 3), self.PROBLEM, method=method,
                         initial_mapping=Mapping([0, 1, 2, 3, 4], 12))

    def test_compile_rejects_a_plain_list(self):
        from repro.compiler import compile_qaoa
        with pytest.raises(SpecificationError, match="must be a Mapping"):
            compile_qaoa(grid(3, 3), self.PROBLEM,
                         initial_mapping=[0, 1, 2, 3, 4])

    def test_fitting_mapping_is_used(self):
        from repro.compiler import compile_qaoa
        initial = Mapping([8, 7, 6, 5, 4], 9)
        result = compile_qaoa(grid(3, 3), self.PROBLEM,
                              initial_mapping=initial)
        assert result.initial_mapping == initial


class TestNoiseAware:
    def test_region_is_connected(self):
        coupling = heavyhex(3, 6)
        problem = random_problem_graph(12, 0.3, seed=1)
        noise = NoiseModel(coupling, seed=7)
        m = noise_aware_placement(coupling, problem, noise)
        used = sorted(m.log_to_phys)
        # Connectivity: BFS within the used set reaches everything.
        used_set = set(used)
        frontier = [used[0]]
        seen = {used[0]}
        while frontier:
            nxt = []
            for q in frontier:
                for n in coupling.neighbors(q):
                    if n in used_set and n not in seen:
                        seen.add(n)
                        nxt.append(n)
            frontier = nxt
        assert seen == used_set

    def test_avoids_worst_qubit(self):
        coupling = line(6)
        problem = clique(3)
        noise = NoiseModel(coupling, seed=1)
        # Poison one end of the line.
        noise.readout_error[5] = 0.9
        noise.cx_error[(4, 5)] = 0.08
        m = noise_aware_placement(coupling, problem, noise)
        assert 5 not in m.log_to_phys

    def test_compile_with_noise_placement(self):
        from repro.compiler import compile_qaoa
        coupling = grid(4, 4)
        problem = random_problem_graph(10, 0.4, seed=3)
        noise = NoiseModel(coupling, seed=2)
        result = compile_qaoa(coupling, problem, placement="noise",
                              noise=noise)
        result.validate(coupling, problem)

    def test_noise_placement_falls_back_without_model(self):
        import pytest

        from repro.compiler import compile_qaoa
        coupling = grid(4, 4)
        problem = random_problem_graph(10, 0.4, seed=3)
        with pytest.warns(UserWarning, match="falling back to quadratic"):
            result = compile_qaoa(coupling, problem, placement="noise")
        result.validate(coupling, problem)
        # The fallback is recorded so sweeps can't mislabel the run.
        assert result.extra["placement_fallback"]["requested"] == "noise"
