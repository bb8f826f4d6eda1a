"""Tests for error-weighted SWAP insertion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (NoiseModel, grid, heavyhex, line, sycamore,
                        uniform_noise_model)
from repro.compiler.fastpath import GreedyFastPath
from repro.compiler.greedy import _forced_step
from repro.compiler.swap_insertion import select_swaps
from repro.ir.mapping import Mapping
from repro.problems import random_problem_graph
from repro.problems.graphs import ProblemGraph, clique

from .reference_swaps import reference_select_swaps


@pytest.fixture
def chain():
    return line(5)


def fast_path(coupling, mapping, pending, noise=None):
    """A ``GreedyFastPath`` over exactly the ``pending`` pairs."""
    edges = {(u, v) for u, partners in pending.items() for v in partners
             if u < v}
    return GreedyFastPath(coupling, ProblemGraph(mapping.n_logical, edges),
                          mapping, noise)


class TestBenefit:
    def test_positive_when_moving_closer(self, chain):
        mapping = Mapping.trivial(5)
        fast = fast_path(chain, mapping, {0: {4}, 4: {0}})
        # Swapping (0,1) moves logical 0 one step towards logical 4.
        assert fast.benefit(0, 1) == 1

    def test_negative_when_moving_away(self, chain):
        mapping = Mapping.trivial(5)
        fast = fast_path(chain, mapping, {1: {0}, 0: {1}})
        # They are already adjacent; pushing 1 to position 2 moves it away
        # and drags 2's occupant (no pending) for nothing.
        assert fast.benefit(1, 2) < 0

    def test_spare_qubits_contribute_zero(self, chain):
        mapping = Mapping([0, 4], 5)  # two logical qubits at the ends
        fast = fast_path(chain, mapping, {0: {1}, 1: {0}})
        assert fast.benefit(1, 2) == 0


def select(coupling, mapping, pending, busy, noise=None, **kwargs):
    """``select_swaps`` with the fast path built from the pending pairs,
    as ``greedy_compile`` builds it."""
    return select_swaps(fast_path(coupling, mapping, pending, noise), busy,
                        **kwargs)


class TestSelection:
    def test_selects_helpful_swap(self, chain):
        mapping = Mapping.trivial(5)
        pending = {0: {4}, 4: {0}}
        swaps = select(chain, mapping, pending, busy=set())
        assert swaps  # something moves the distant pair together

    def test_busy_qubits_excluded(self, chain):
        mapping = Mapping.trivial(5)
        pending = {0: {4}, 4: {0}}
        swaps = select(chain, mapping, pending, busy={0, 1, 2, 3, 4})
        assert swaps == []

    def test_no_pending_no_swaps(self, chain):
        mapping = Mapping.trivial(5)
        swaps = select(chain, mapping, {}, busy=set())
        assert swaps == []

    def test_swaps_are_disjoint(self, chain):
        mapping = Mapping.trivial(5)
        pending = {0: {4}, 4: {0}, 1: {3}, 3: {1}}
        swaps = select(chain, mapping, pending, busy=set())
        qubits = [q for pair in swaps for q in pair]
        assert len(qubits) == len(set(qubits))

    def test_exact_matching_mode(self, chain):
        pending = {0: {4}, 4: {0}}
        # Each call applies its SWAPs to the mapping it is given.
        greedy = select(chain, Mapping.trivial(5), pending, busy=set(),
                        matching="greedy")
        exact = select(chain, Mapping.trivial(5), pending, busy=set(),
                       matching="exact")
        assert greedy and exact

    def test_noise_prefers_reliable_link(self):
        # Two symmetric swap options; make one link terrible.
        coupling = line(3)
        noise = uniform_noise_model(coupling, cx_error=0.005)
        noise.cx_error[(0, 1)] = 0.08  # bad link
        mapping = Mapping.trivial(3)
        # Logical 0 at 0 and logical 2 at 2 need each other; either side
        # can move.  With error weighting the (1,2) swap wins.
        pending = {0: {2}, 2: {0}}
        swaps = select(coupling, mapping, pending, busy=set(), noise=noise)
        assert swaps == [(1, 2)]


ARCHITECTURES = [line(9), grid(3, 4), heavyhex(2, 6), sycamore(4, 4)]


class TestMatchesReference:
    """``select_swaps`` returns the frozen scalar scorer's SWAP list."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           arch=st.sampled_from(ARCHITECTURES),
           density=st.floats(0.0, 1.0),
           graph_seed=st.integers(0, 2**16),
           noise_seed=st.one_of(st.none(), st.integers(0, 2**16)),
           matching=st.sampled_from(["greedy", "exact"]))
    def test_identical_swaps(self, data, arch, density, graph_seed,
                             noise_seed, matching):
        n = data.draw(st.integers(2, arch.n_qubits), label="n")
        sites = data.draw(st.permutations(range(arch.n_qubits)),
                          label="sites")
        mapping = Mapping(sites[:n], arch.n_qubits)
        problem = random_problem_graph(n, density, seed=graph_seed)
        noise = (NoiseModel(arch, seed=noise_seed)
                 if noise_seed is not None else None)
        fast = GreedyFastPath(arch, problem, mapping, noise)
        # A mid-run state: some pairs already emitted.
        done = data.draw(st.sets(st.sampled_from(sorted(problem.edges)))
                         if problem.edges else st.just(set()),
                         label="done")
        pending = {}
        for a, b in sorted(problem.edges):
            if (a, b) in done:
                fast.mark_done((a, b))
            else:
                pending.setdefault(a, set()).add(b)
                pending.setdefault(b, set()).add(a)
        busy = data.draw(st.sets(st.integers(0, arch.n_qubits - 1)),
                         label="busy")

        want = reference_select_swaps(arch, mapping, pending, busy,
                                      noise=noise, matching=matching)
        after = mapping.copy()
        for u, v in want:
            after.swap_physical(u, v)
        assert select_swaps(fast, busy, matching) == want
        # The kept SWAPs are applied to the engine's mapping, in order.
        assert mapping == after


#: Cycles each multi-cycle run lasts, unless its problem runs out first.
CYCLES = 24


def drive_cycles(arch, problem, mapping, noise, matching, pick):
    """Run one ``GreedyFastPath``/``Mapping`` pair through ``CYCLES``
    engine cycles, checking ``select_swaps`` against the reference at
    every one.

    Each cycle emits ``pick(executable)`` — a subset of the executable
    pairs — then selects SWAPs, as ``greedy_compile`` does; a cycle that
    does neither takes the engine's forced step.  Returns the number of
    cycles run.
    """
    fast = GreedyFastPath(arch, problem, mapping, noise)
    pending = {}
    for a, b in problem.edges:
        pending.setdefault(a, set()).add(b)
        pending.setdefault(b, set()).add(a)
    remaining = set(problem.edges)
    for cycle in range(1, CYCLES + 1):
        executable = fast.executable()
        assert executable == list(reference_executable(arch, mapping,
                                                       remaining))
        busy = set()
        emitted = pick(executable)
        for u, v, (a, b) in emitted:
            fast.mark_done((a, b))
            remaining.discard((a, b))
            pending[a].discard(b)
            pending[b].discard(a)
            busy.update((u, v))
        # The scan's live width is the longest pending row, at least 1.
        assert fast.width == max(1, max(map(len, fast.pending)))
        if not remaining:
            return cycle
        want = reference_select_swaps(arch, mapping, pending, busy,
                                      noise=noise, matching=matching)
        after = mapping.copy()
        for u, v in want:
            after.swap_physical(u, v)
        assert select_swaps(fast, busy, matching) == want, f"cycle {cycle}"
        assert mapping == after, f"cycle {cycle}"
        if not emitted and not want:
            mapping.swap_physical(*_forced_step(arch, mapping, remaining))
    return CYCLES


def reference_executable(arch, mapping, remaining):
    """Pending pairs on coupled qubits, in ``coupling.edges`` order."""
    for u, v in arch.edges:
        a, b = mapping.logical(u), mapping.logical(v)
        if a is None or b is None:
            continue
        pair = (a, b) if a < b else (b, a)
        if pair in remaining:
            yield u, v, pair


class TestManyCyclesMatchReference:
    """``select_swaps`` tracks the reference through a whole run, not
    only from one mid-run state: stale partner lists, matrices or index
    arrays after many ``mark_done`` and SWAP updates would show here."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(),
           arch=st.sampled_from(ARCHITECTURES + [grid(6, 6)]),
           density=st.floats(0.1, 1.0),
           graph_seed=st.integers(0, 2**16),
           noise_seed=st.one_of(st.none(), st.integers(0, 2**16)),
           matching=st.sampled_from(["greedy", "exact"]))
    def test_every_cycle_matches(self, data, arch, density, graph_seed,
                                 noise_seed, matching):
        n = data.draw(st.integers(2, arch.n_qubits), label="n")
        sites = data.draw(st.permutations(range(arch.n_qubits)),
                          label="sites")
        problem = random_problem_graph(n, density, seed=graph_seed)
        noise = (NoiseModel(arch, seed=noise_seed)
                 if noise_seed is not None else None)

        def pick(executable):
            if not executable:
                return []
            return data.draw(st.lists(st.sampled_from(executable),
                                      max_size=2, unique=True))

        drive_cycles(arch, problem, Mapping(sites[:n], arch.n_qubits),
                     noise, matching, pick)

    @pytest.mark.parametrize("noisy", [False, True],
                             ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("arch", [sycamore(4, 4), heavyhex(2, 6),
                                      grid(8, 8)],
                             ids=lambda arch: arch.name)
    def test_clique(self, arch, noisy):
        """Every logical qubit starts with n - 1 pending partners."""
        rng = random.Random(arch.n_qubits)
        n = arch.n_qubits - 2
        sites = rng.sample(range(arch.n_qubits), n)
        noise = NoiseModel(arch, seed=5) if noisy else None

        def pick(executable):
            return rng.sample(executable, min(len(executable), 2))

        cycles = drive_cycles(arch, clique(n), Mapping(sites, arch.n_qubits),
                              noise, "greedy", pick)
        assert cycles == CYCLES
