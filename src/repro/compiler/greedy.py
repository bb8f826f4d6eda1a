"""The greedy processing component — Section 6.2 and Fig 18.

Iteratively schedules hardware-compliant candidate gates (graph-colouring
selection) and inserts beneficial SWAPs on idle qubits (error-weighted
matching), logging a snapshot — the cycle and the circuit's op count —
whenever the qubit mapping changes so the ATA-prediction component can
later splice a structured suffix at any point (Section 6.3).
:func:`replay_snapshots` rebuilds the mapping and remaining edges at the
logged points from the circuit itself, and :func:`snapshot_labels` gives
the connected components of the remaining edges at each of them.

A forced-progress rule guarantees termination: if a cycle schedules no gate
and finds no beneficial SWAP, the closest pending pair is moved one step
along its shortest path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple)

from ..arch.coupling import CouplingGraph
from ..arch.noise import NoiseModel
from ..exceptions import CompilationError
from ..ir.circuit import Circuit
from ..ir.gates import CPHASE, SWAP, Op, canonical_edge
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph
from .fastpath import GreedyFastPath
from .scheduling import select_gates
from .swap_insertion import select_swaps


@dataclass(frozen=True)
class Snapshot:
    """A mapping change: the cycle and the circuit's length right after it."""

    cycle: int
    op_count: int


@dataclass
class GreedyTrace:
    """Full output of the greedy engine, snapshots included."""

    circuit: Circuit
    final_mapping: Mapping
    snapshots: List[Snapshot] = field(default_factory=list)
    cycles: int = 0
    remaining: frozenset = frozenset()


def replay_snapshots(
    circuit: Circuit,
    initial_mapping: Mapping,
    edges: Iterable[Tuple[int, int]],
    snapshots: Iterable[Snapshot],
    feed: Optional[Callable[[Sequence[Op]], None]] = None,
) -> Iterator[Tuple[Snapshot, Mapping, FrozenSet[Tuple[int, int]]]]:
    """Rebuild the engine's state at each snapshot in one walk of ``circuit``.

    ``snapshots`` must be in emission order (any subset of a trace's
    log).  For each one this yields the mapping — ``initial_mapping``
    plus the prefix's SWAPs — and the remaining edges — the canonical
    problem ``edges``, inserted in order, minus the prefix's CPHASE
    tags — exactly as :func:`greedy_compile` held them at that point.
    ``feed``, when given, is called once per snapshot with the ops
    walked since the previous one, in order, before the yield: the
    candidate pass keeps its walk state with it
    (:meth:`repro.ata.executor.Walk.follow`).
    """
    mapping = initial_mapping.copy()
    remaining = _pending_pairs(edges)
    ops = circuit.ops
    walked = 0
    for snapshot in snapshots:
        step = ops[walked:snapshot.op_count]
        for op in step:
            if op.kind == SWAP:
                mapping.swap_physical(*op.qubits)
            elif op.kind == CPHASE:
                remaining.discard(op.tag)
        if feed is not None:
            feed(step)
        walked += len(step)
        yield snapshot, mapping.copy(), frozenset(remaining)


def snapshot_labels(
    circuit: Circuit,
    n_logical: int,
    remaining: Iterable[Tuple[int, int]],
    snapshots: Sequence[Snapshot],
) -> List[List[int]]:
    """Connected components of the remaining edges at each snapshot.

    ``remaining`` holds the canonical pairs still pending after the
    last op of ``circuit``; ``snapshots`` are in emission order.  One
    disjoint-set pass runs backwards from the end of the circuit and
    adds back the CPHASE tags walked between consecutive snapshots:
    going backwards a snapshot's remaining edges are a superset of the
    next one's, so no merge is ever undone.  For each snapshot it records
    one label per logical qubit — a name of its component, or -1 when
    no remaining edge touches it — and no edge set.
    """
    # ``label[v]`` is -1 until an edge touches ``v``; a merge relabels
    # the smaller component, so each pair that lands inside one
    # component (most of them) costs two reads.
    label = [-1] * n_logical
    members: Dict[int, List[int]] = {}

    def join(pairs: Iterable[Tuple[int, int]]) -> None:
        for u, v in pairs:
            lu = label[u]
            lv = label[v]
            if lu == lv >= 0:
                continue
            if lu < 0 and lv < 0:
                label[u] = label[v] = u
                members[u] = [u, v]
            elif lu < 0:
                label[u] = lv
                members[lv].append(u)
            elif lv < 0:
                label[v] = lu
                members[lu].append(v)
            else:
                if len(members[lu]) < len(members[lv]):
                    lu, lv = lv, lu
                moved = members.pop(lv)
                for w in moved:
                    label[w] = lu
                members[lu].extend(moved)

    join(remaining)
    ops = circuit.ops
    end = len(ops)
    labels: List[List[int]] = []
    for snapshot in reversed(snapshots):
        join([op.tag for op in ops[snapshot.op_count:end]
              if op.kind == CPHASE])
        end = snapshot.op_count
        labels.append(label[:])
    labels.reverse()
    return labels


def greedy_compile(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    initial_mapping: Mapping,
    noise: Optional[NoiseModel] = None,
    gamma: float = 0.0,
    matching: str = "greedy",
    crosstalk_aware: bool = True,
    max_cycles: Optional[int] = None,
    unify_swaps: bool = False,
    gate_selection: str = "color",
) -> GreedyTrace:
    """Run the pure greedy scheduler to completion.

    With ``max_cycles`` the loop stops early and leaves the remainder in the
    last snapshot — the hybrid framework then finishes with the ATA suffix.
    Snapshots are logged on every run: two ints per cycle that swaps.

    ``unify_swaps`` enables the 2QAN-style optimisation: when an inserted
    SWAP's pair still has a pending gate, the gate is emitted immediately
    before the SWAP so the decomposer fuses them into 3 CX.

    ``gate_selection`` — ``"color"`` uses the crosstalk-aware colouring
    scheduler (the paper's design); ``"greedy"`` schedules executable gates
    first-come (used by baselines without that machinery).
    """
    mapping = initial_mapping.copy()
    circuit = Circuit(coupling.n_qubits)

    remaining = _pending_pairs(problem.edges)

    # Holds `mapping` itself (not a copy) and each logical qubit's
    # pending partners; its per-cycle scans read numpy arrays derived
    # from them.
    fast = GreedyFastPath(coupling, problem, mapping, noise)

    trace = GreedyTrace(circuit=circuit, final_mapping=mapping)
    trace.snapshots.append(Snapshot(0, 0))

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
            busy.add(u)
            busy.add(v)

        if not remaining:
            break

        # select_swaps leaves its kept SWAPs applied to `mapping`.
        swaps = select_swaps(fast, busy, matching)
        if not scheduled and not swaps:
            swaps = [_forced_step(coupling, mapping, remaining)]
            fast.move(*swaps[0])
        for u, v in swaps:
            if unify_swaps:
                # The SWAPs are disjoint, so (u, v) holds the same two
                # logical qubits as before it was applied.
                lu, lv = mapping.logical(u), mapping.logical(v)
                if lu is not None and lv is not None:
                    pair = canonical_edge(lu, lv)
                    if pair in remaining:
                        circuit.append(Op.cphase(u, v, gamma, tag=pair))
                        remaining.discard(pair)
                        fast.mark_done(pair)
            circuit.append(Op.swap(u, v))
        if swaps:
            trace.snapshots.append(Snapshot(cycle, len(circuit)))

    if remaining and trace.snapshots[-1].op_count != len(circuit):
        # Terminal snapshot so the hybrid framework can splice an ATA
        # suffix after a capped greedy run, unless the last cycle's
        # SWAPs already logged this point.
        trace.snapshots.append(Snapshot(cycle, len(circuit)))
    trace.final_mapping = mapping
    trace.cycles = cycle
    if max_cycles is None and remaining:
        raise CompilationError("greedy engine stalled with remaining gates")
    # Expose the unfinished remainder (empty on full runs).
    trace.remaining = frozenset(remaining)
    return trace


def _pending_pairs(edges: Iterable[Tuple[int, int]]) -> Set[Tuple[int, int]]:
    """The canonical pairs, inserted in ``edges`` order — one construction
    for the engine and :func:`replay_snapshots`, so both sets iterate
    alike."""
    return {(u, v) if u <= v else (v, u) for u, v in edges}


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
