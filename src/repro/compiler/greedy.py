"""The greedy processing component — Section 6.2 and Fig 18.

Iteratively schedules hardware-compliant candidate gates (graph-colouring
selection) and inserts beneficial SWAPs on idle qubits (error-weighted
matching), recording a snapshot whenever the qubit mapping changes so the
ATA-prediction component can later splice a structured suffix at any point
(Section 6.3).

A forced-progress rule guarantees termination: if a cycle schedules no gate
and finds no beneficial SWAP, the closest pending pair is moved one step
along its shortest path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..arch.coupling import CouplingGraph
from ..arch.noise import NoiseModel
from ..exceptions import CompilationError
from ..ir.circuit import Circuit
from ..ir.gates import Op, canonical_edge
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph
from .fastpath import GreedyFastPath
from .scheduling import select_gates
from .swap_insertion import select_swaps


@dataclass
class Snapshot:
    """Compilation state right after a mapping change (cycle boundary)."""

    cycle: int
    op_count: int
    mapping: Mapping
    remaining: frozenset


@dataclass
class GreedyTrace:
    """Full output of the greedy engine, snapshots included."""

    circuit: Circuit
    final_mapping: Mapping
    snapshots: List[Snapshot] = field(default_factory=list)
    cycles: int = 0
    remaining: frozenset = frozenset()


def greedy_compile(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    initial_mapping: Mapping,
    noise: Optional[NoiseModel] = None,
    gamma: float = 0.0,
    matching: str = "greedy",
    crosstalk_aware: bool = True,
    record_snapshots: bool = True,
    max_cycles: Optional[int] = None,
    unify_swaps: bool = False,
    gate_selection: str = "color",
) -> GreedyTrace:
    """Run the pure greedy scheduler to completion.

    With ``max_cycles`` the loop stops early and leaves the remainder in the
    last snapshot — the hybrid framework then finishes with the ATA suffix.

    ``unify_swaps`` enables the 2QAN-style optimisation: when an inserted
    SWAP's pair still has a pending gate, the gate is emitted immediately
    before the SWAP so the decomposer fuses them into 3 CX.

    ``gate_selection`` — ``"color"`` uses the crosstalk-aware colouring
    scheduler (the paper's design); ``"greedy"`` schedules executable gates
    first-come (used by baselines without that machinery).
    """
    mapping = initial_mapping.copy()
    circuit = Circuit(coupling.n_qubits)

    pending: Dict[int, Set[int]] = {}
    remaining: Set[Tuple[int, int]] = set()
    for u, v in problem.edges:
        pair = canonical_edge(u, v)
        remaining.add(pair)
        pending.setdefault(u, set()).add(v)
        pending.setdefault(v, set()).add(u)

    # Numpy mirrors of (mapping, remaining, pending): the per-cycle
    # executable and SWAP-candidate scans run vectorized but produce
    # byte-identical results to the scalar loops they replace.
    fast = GreedyFastPath(coupling, problem, mapping, noise)

    trace = GreedyTrace(circuit=circuit, final_mapping=mapping)
    if record_snapshots:
        trace.snapshots.append(Snapshot(0, 0, mapping.copy(),
                                        frozenset(remaining)))

    cycle = 0
    # Absolute bound against pathological swap oscillation; on hitting it
    # the remainder is finished by plain shortest-path routing.
    hard_limit = 50 * coupling.n_qubits + 4 * len(problem.edges) + 100
    while remaining:
        if max_cycles is not None and cycle >= max_cycles:
            break
        if cycle >= hard_limit:
            from ..ata.executor import greedy_completion

            greedy_completion(coupling, circuit, mapping, remaining, gamma)
            break
        cycle += 1

        executable = fast.executable()
        if gate_selection == "color":
            scheduled = select_gates(executable, noise=noise,
                                     crosstalk_aware=crosstalk_aware)
        else:
            scheduled = _first_come(executable)

        busy: Set[int] = set()
        for u, v, pair in scheduled:
            circuit.append(Op.cphase(u, v, gamma, tag=pair))
            remaining.discard(pair)
            fast.mark_done(pair)
            a, b = pair
            pending[a].discard(b)
            pending[b].discard(a)
            busy.add(u)
            busy.add(v)

        if not remaining:
            break

        swaps = select_swaps(coupling, mapping, pending, busy,
                             noise=noise, matching=matching, fast=fast)
        if not scheduled and not swaps:
            swaps = [_forced_step(coupling, mapping, remaining)]
        for u, v in swaps:
            if unify_swaps:
                lu, lv = mapping.logical(u), mapping.logical(v)
                if lu is not None and lv is not None:
                    pair = canonical_edge(lu, lv)
                    if pair in remaining:
                        circuit.append(Op.cphase(u, v, gamma, tag=pair))
                        remaining.discard(pair)
                        fast.mark_done(pair)
                        pending[pair[0]].discard(pair[1])
                        pending[pair[1]].discard(pair[0])
            circuit.append(Op.swap(u, v))
            mapping.swap_physical(u, v)
            fast.swap(u, v)
        if swaps and record_snapshots:
            trace.snapshots.append(Snapshot(cycle, len(circuit),
                                            mapping.copy(),
                                            frozenset(remaining)))

    if remaining and record_snapshots:
        # Terminal snapshot so the hybrid framework can splice an ATA
        # suffix after a capped greedy run.
        trace.snapshots.append(Snapshot(cycle, len(circuit), mapping.copy(),
                                        frozenset(remaining)))
    trace.final_mapping = mapping
    trace.cycles = cycle
    if max_cycles is None and remaining:
        raise CompilationError("greedy engine stalled with remaining gates")
    # Expose the unfinished remainder (empty on full runs).
    trace.remaining = frozenset(remaining)
    return trace


def _first_come(executable):
    chosen = []
    used: Set[int] = set()
    for u, v, pair in executable:
        if u in used or v in used:
            continue
        chosen.append((u, v, pair))
        used.add(u)
        used.add(v)
    return chosen


def _forced_step(
    coupling: CouplingGraph,
    mapping: Mapping,
    remaining: Set[Tuple[int, int]],
) -> Tuple[int, int]:
    """Move the closest pending pair one step together (progress guarantee)."""
    dist = coupling.distance_matrix
    # Tie-break equal distances by the pair itself: `remaining` is a set,
    # so min() over the raw distance would pick whichever equally-close
    # pair hash order surfaced first.
    best_pair = min(
        remaining,
        key=lambda pair: (int(dist[mapping.physical(pair[0]),
                                   mapping.physical(pair[1])]), pair))
    pu = mapping.physical(best_pair[0])
    pv = mapping.physical(best_pair[1])
    path = coupling.shortest_path(pu, pv)
    return (path[0], path[1])
