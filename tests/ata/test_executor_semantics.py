"""Fine-grained semantics of the pattern executor."""


from repro.ata import LinePattern, execute_pattern
from repro.ata.base import GATE, SWAP, AtaPattern
from repro.ir.gates import CPHASE
from repro.ir.mapping import Mapping


class ScriptedPattern(AtaPattern):
    """A hand-written cycle list, for poking at executor edge cases."""

    def __init__(self, script, region):
        self._script = script
        self._qubits = list(region)

    def cycles(self):
        return iter(self._script)

    def qubits(self):
        return self._qubits


class TestGateSkipping:
    def test_unneeded_gate_opportunity_ignored(self):
        pattern = ScriptedPattern([[(GATE, 0, 1)], [(GATE, 1, 2)]],
                                  region=[0, 1, 2])
        circuit, _, residual = execute_pattern(
            pattern, Mapping.trivial(3), [(1, 2)])
        assert not residual
        assert circuit.cphase_count == 1
        assert circuit.depth() == 1  # unused opportunity costs no cycle

    def test_conflicting_gate_opportunities_take_first_needed(self):
        # Both (0,1) and (1,2) needed; one cycle offers both (share qubit 1).
        pattern = ScriptedPattern(
            [[(GATE, 0, 1), (GATE, 1, 2)], [(GATE, 1, 2)]],
            region=[0, 1, 2])
        circuit, _, residual = execute_pattern(
            pattern, Mapping.trivial(3), [(0, 1), (1, 2)])
        assert not residual
        assert circuit.cphase_count == 2

    def test_repeat_opportunity_not_reexecuted(self):
        pattern = ScriptedPattern([[(GATE, 0, 1)], [(GATE, 0, 1)]],
                                  region=[0, 1])
        circuit, _, _ = execute_pattern(
            pattern, Mapping.trivial(2), [(0, 1)])
        assert circuit.cphase_count == 1


class TestSwapElision:
    def test_swap_between_finished_qubits_elided(self):
        # One needed edge (0,1) executed in cycle 0; the later swap moves
        # two finished occupants and must be skipped.
        pattern = ScriptedPattern(
            [[(GATE, 0, 1)], [(GATE, 2, 3)], [(SWAP, 0, 1)]],
            region=[0, 1, 2, 3])
        circuit, mapping, residual = execute_pattern(
            pattern, Mapping.trivial(4), [(0, 1), (2, 3)])
        assert not residual
        assert circuit.swap_count == 0
        assert mapping == Mapping.trivial(4)

    def test_swap_with_active_occupant_kept(self):
        pattern = ScriptedPattern(
            [[(SWAP, 1, 2)], [(GATE, 0, 1)]], region=[0, 1, 2])
        circuit, _, residual = execute_pattern(
            pattern, Mapping.trivial(3), [(0, 2)])
        assert not residual
        assert circuit.swap_count == 1

    def test_spare_qubit_swap_with_active_partner(self):
        # Logical 0 at position 0 must reach logical 1 at position 2; the
        # spare at position 1 participates in routing.
        pattern = ScriptedPattern(
            [[(SWAP, 1, 2)], [(GATE, 0, 1)]], region=[0, 1, 2])
        mapping = Mapping([0, 2], 3)
        circuit, _, residual = execute_pattern(pattern, mapping, [(0, 1)])
        assert not residual
        assert circuit.cphase_count == 1


class TestGamma:
    def test_gamma_on_all_gates(self):
        circuit, _, _ = execute_pattern(
            LinePattern([0, 1, 2]), Mapping.trivial(3),
            [(0, 1), (1, 2), (0, 2)], gamma=1.25)
        for op in circuit:
            if op.kind == CPHASE:
                assert op.param == 1.25
