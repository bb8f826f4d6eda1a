"""Tests for error-weighted SWAP insertion."""

import pytest

from repro.arch import line, uniform_noise_model
from repro.compiler.fastpath import GreedyFastPath
from repro.compiler.swap_insertion import select_swaps, swap_benefit
from repro.ir.mapping import Mapping
from repro.problems.graphs import ProblemGraph


@pytest.fixture
def chain():
    return line(5)


class TestBenefit:
    def test_positive_when_moving_closer(self, chain):
        mapping = Mapping.trivial(5)
        pending = {0: {4}, 4: {0}}
        # Swapping (0,1) moves logical 0 one step towards logical 4.
        assert swap_benefit(0, 1, chain, mapping, pending) == 1

    def test_negative_when_moving_away(self, chain):
        mapping = Mapping.trivial(5)
        pending = {1: {0}, 0: {1}}
        # They are already adjacent; pushing 1 to position 2 moves it away
        # and drags 2's occupant (no pending) for nothing.
        assert swap_benefit(1, 2, chain, mapping, pending) < 0

    def test_spare_qubits_contribute_zero(self, chain):
        mapping = Mapping([0, 4], 5)  # two logical qubits at the ends
        pending = {0: {1}, 1: {0}}
        assert swap_benefit(1, 2, chain, mapping, pending) == 0


def select(coupling, mapping, pending, busy, noise=None, **kwargs):
    """``select_swaps`` with the fast path built from the same pending
    pairs, as ``greedy_compile`` builds it."""
    edges = {(u, v) for u, partners in pending.items() for v in partners
             if u < v}
    fast = GreedyFastPath(coupling, ProblemGraph(mapping.n_logical, edges),
                          mapping, noise)
    return select_swaps(coupling, mapping, pending, busy, fast,
                        noise=noise, **kwargs)


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
        mapping = Mapping.trivial(5)
        pending = {0: {4}, 4: {0}}
        greedy = select(chain, mapping, pending, busy=set(),
                        matching="greedy")
        exact = select(chain, mapping, pending, busy=set(),
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
