"""Tests for the admissible cost function (Definitions 3 and 4)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.solver.heuristic import heuristic, pair_cost


class TestPairCost:
    def test_fig15_worked_example(self):
        # deg(q1)=3, deg(q4)=2, distance 3 -> cost 4 (paper Fig 15).
        assert pair_cost(3, 2, 3) == 4

    def test_adjacent_pair_is_max_of_degrees(self):
        assert pair_cost(2, 5, 1) == 5
        assert pair_cost(1, 1, 1) == 1

    def test_distance_two_single_swap_split(self):
        # One swap must be taken by one of the qubits.
        assert pair_cost(1, 1, 2) == 2
        assert pair_cost(3, 1, 2) == 3  # give the swap to the light qubit

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            pair_cost(1, 1, 0)

    @given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 12))
    def test_cost_at_least_busier_degree(self, di, dj, d):
        assert pair_cost(di, dj, d) >= max(di, dj)

    @given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 12))
    def test_cost_at_least_half_the_total_work(self, di, dj, d):
        # di + dj gates plus d-1 swaps split across two qubits.
        total = di + dj + (d - 1)
        assert pair_cost(di, dj, d) >= total / 2

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 10))
    def test_symmetry(self, di, dj, d):
        assert pair_cost(di, dj, d) == pair_cost(dj, di, d)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 9))
    def test_monotone_in_distance(self, di, dj, d):
        assert pair_cost(di, dj, d + 1) >= pair_cost(di, dj, d)

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 60))
    def test_closed_form_equals_the_original_scan(self, di, dj, d):
        # The O(1) closed form must agree with the O(d) Definition-3
        # minimisation it replaced (kept in the frozen reference solver).
        from tests.solver.reference import _pair_cost_legacy

        assert pair_cost(di, dj, d) == _pair_cost_legacy(di, dj, d)


class TestHeuristic:
    def test_empty_remaining_is_zero(self):
        dist = np.zeros((2, 2), dtype=np.int32)
        assert heuristic([], {}, [0, 1], dist) == 0

    def test_takes_max_over_edges(self):
        # Line of 4: distances |i-j|.
        dist = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
        remaining = [(0, 1), (0, 3)]
        degrees = {0: 2, 1: 1, 3: 1}
        # (0,1): max(2,1)=2 ; (0,3): d=3, min split -> max(2+x, 1+2-x)
        # x=0 -> 3, x=1 -> 3, x=2 -> 4 => 3.
        assert heuristic(remaining, degrees, [0, 1, 2, 3], dist) == 3
