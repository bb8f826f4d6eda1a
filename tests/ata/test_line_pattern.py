"""Tests for the 1xUnit line pattern (Fig 6/7)."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ata.base import GATE, SWAP
from repro.ata.line_pattern import LinePattern


def simulate(pattern):
    """Track occupants and gate meetings over the full schedule.

    Returns (met_pairs, final_occupants, n_cycles).
    """
    path = pattern.path
    occupant = {q: i for i, q in enumerate(path)}  # physical -> element
    met = set()
    n_cycles = 0
    for cycle in pattern.cycles():
        n_cycles += 1
        swaps = []
        for action, u, v in cycle:
            if action == GATE:
                met.add(frozenset((occupant[u], occupant[v])))
            else:
                swaps.append((u, v))
        for u, v in swaps:
            occupant[u], occupant[v] = occupant[v], occupant[u]
    final = [occupant[q] for q in path]
    return met, final, n_cycles


def all_pairs(m):
    return {frozenset((i, j)) for i in range(m) for j in range(i + 1, m)}


class TestCoverage:
    @pytest.mark.parametrize("m", range(2, 21))
    def test_all_pairs_meet(self, m):
        met, _, _ = simulate(LinePattern(list(range(m))))
        assert met == all_pairs(m)

    @pytest.mark.parametrize("m", range(2, 21))
    def test_linear_depth(self, m):
        _, _, n_cycles = simulate(LinePattern(list(range(m))))
        assert n_cycles <= 2 * m + 2

    def test_nontrivial_physical_labels(self):
        # Pattern must work on arbitrary path node ids, not just 0..m-1.
        path = [10, 3, 7, 42]
        met, _, _ = simulate(LinePattern(path))
        assert met == all_pairs(4)


class TestReversal:
    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
    def test_even_length_reverses(self, m):
        pattern = LinePattern(list(range(m)))
        assert pattern.reverses
        _, final, _ = simulate(pattern)
        assert final == list(range(m - 1, -1, -1))

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_odd_length_flagged_non_reversing(self, m):
        assert not LinePattern(list(range(m))).reverses


class TestStructure:
    def test_layers_alternate_gate_swap(self):
        pattern = LinePattern(list(range(6)))
        for index, cycle in enumerate(pattern.cycles()):
            kinds = {action for action, _, _ in cycle}
            expected = {GATE} if index % 2 == 0 else {SWAP}
            assert kinds <= expected

    def test_layers_are_disjoint(self):
        for cycle in LinePattern(list(range(9))).cycles():
            qubits = [q for _, u, v in cycle for q in (u, v)]
            assert len(qubits) == len(set(qubits))

    def test_trivial_line(self):
        assert list(LinePattern([5]).cycles()) == []

    def test_duplicate_path_rejected(self):
        with pytest.raises(ValueError):
            LinePattern([0, 1, 0])

    def test_region(self):
        assert LinePattern([4, 2, 9]).region == frozenset({4, 2, 9})


class TestRestrict:
    def test_restrict_to_segment(self):
        pattern = LinePattern(list(range(10)))
        sub = pattern.restrict([3, 6, 4])
        assert sub.path == [3, 4, 5, 6]

    def test_threads_restrict_past_the_memo_cap(self):
        """Jobs on the thread executor share a pattern; concurrent
        evictions from its restrict memo neither raise nor overfill it."""
        pattern = LinePattern(list(range(40)))
        boxes = [(lo, hi) for lo in range(40) for hi in range(lo + 1, 40)
                 if (lo, hi) != (0, 39)]
        assert len(boxes) > 256
        calls = [boxes[k % len(boxes)] for k in range(40_000)]

        def restrict(box):
            return pattern.restrict(box).path

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                paths = list(pool.map(restrict, calls, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(pattern._restrict_memo) <= 256
        assert paths == [list(range(lo, hi + 1)) for lo, hi in calls]

    def test_restricted_coverage(self):
        sub = LinePattern(list(range(10))).restrict([2, 5])
        met, _, _ = simulate(sub)
        assert met == all_pairs(4)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 24))
def test_gate_opportunity_count_property(m):
    """Every adjacent pair of positions appears in some gate cycle."""
    pattern = LinePattern(list(range(m)))
    met, _, _ = simulate(pattern)
    assert len(met) == m * (m - 1) // 2
