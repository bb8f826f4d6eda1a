"""The walk's compiled cycles and their kind flags.

``compiled_cycles`` converts each distinct cycle of a ``_compiled_plan``
once and flags it ``K_CPHASE`` or ``K_SWAP`` when all its actions are of
that kind on pairwise disjoint qubits, else ``STAMPED``.  The flagged
cycles skip the walk's first-come stamps, so a flag computed from the
plan must be the one the full ``cycles()`` schedule implies.  The sink
reads CPHASE tags when a cycle's batch arrives, so no pattern may mix
gates and SWAPs in one cycle either.
"""

import random

import pytest

from repro.arch import architecture_for, mumbai
from repro.ata.base import GATE, SWAP
from repro.ata.executor import K_CPHASE, K_SWAP, STAMPED, compiled_cycles
from repro.ata.registry import get_pattern, snake_pattern

ARCHS = [("line", 9), ("line", 16), ("grid", 12), ("grid", 25),
         ("heavyhex", 20), ("heavyhex", 64), ("sycamore", 16),
         ("hexagon", 16), ("cube", 18), ("cube", 27)]


def expected(cycle):
    """``(flag, ops)`` of one generated cycle, derived independently."""
    ops = tuple((K_CPHASE if action == GATE else K_SWAP, u, v)
                for action, u, v in cycle)
    kinds = {action for action, _, _ in cycle}
    qubits = [q for _, u, v in cycle for q in (u, v)]
    if len(kinds) <= 1 and len(set(qubits)) == len(qubits):
        return (K_CPHASE if kinds == {GATE} else K_SWAP), ops
    return STAMPED, ops


def patterns():
    """Every registered pattern (fresh, so nothing is cached on it), the
    snake fallback, and sub-patterns restricted to random qubit sets."""
    rng = random.Random(7)
    couplings = [architecture_for(kind, n) for kind, n in ARCHS]
    couplings.append(mumbai())
    for coupling in couplings:
        pattern = get_pattern(coupling, cached=False)
        yield f"{coupling.name}", pattern
        for size in (2, 3, 5):
            qubits = rng.sample(sorted(pattern.region), size)
            yield f"{coupling.name}/restrict{size}", pattern.restrict(qubits)
    for n in (9, 12):
        coupling = architecture_for("grid", n)
        yield f"{coupling.name}/snake", snake_pattern(coupling)


PATTERNS = [pytest.param(pattern, id=name) for name, pattern in patterns()]


@pytest.mark.parametrize("pattern", PATTERNS)
def test_plan_flags_equal_generated_flags(pattern):
    assert compiled_cycles(pattern) == [expected(cycle)
                                        for cycle in pattern.cycles()]


@pytest.mark.parametrize("pattern", PATTERNS)
def test_no_cycle_mixes_gates_and_swaps(pattern):
    for cycle in pattern.cycles():
        assert len({action for action, _, _ in cycle}) <= 1, cycle
        assert {action for action, _, _ in cycle} <= {GATE, SWAP}


def test_heavyhex_interleaves_are_the_stamped_cycles():
    """Heavy-hex's interleaves offer one off-path qubit several anchors
    in a cycle; every other cycle of the registered patterns is flagged."""
    stamped = {name: sum(flag == STAMPED for flag, _ in
                         compiled_cycles(pattern))
               for name, pattern in patterns()}
    assert any(count for name, count in stamped.items()
               if name.startswith("heavyhex"))
    assert not any(count for name, count in stamped.items()
                   if not name.startswith(("heavyhex", "ibm-mumbai")))
