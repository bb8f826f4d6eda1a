"""Depth-optimal search for small instances — Section 4.

Search-tree nodes are circuit states: the logical-to-physical occupancy at
the start of a cycle plus the set of still-unexecuted problem gates.  Each
transition schedules one cycle: a conflict-free combination of executable
problem gates and SWAPs.  With the admissible priority of
:mod:`repro.solver.heuristic`, the first terminal node popped from the
queue carries a minimal-depth schedule.

This is the tool the authors ran on 1x6 lines, 2x4 grids and 7-qubit
Sycamore fragments to *discover* the structured patterns of Section 3; the
test-suite replays those discoveries at feasible sizes and checks the
engine's depths and node counts on the paper-scale instances against the
frozen pre-refactor implementation (``tests/solver/reference.py``).

Engine design
-------------
The search state is packed into integers: the remaining gate set is a
bitmask over the instance's edge list and the occupancy is a tuple of
``logical + 1`` slot values (``0`` = spare), combined into a single
integer key for the ``best_g``/``parents`` dicts.  Three prunings keep
the fan-out polynomial in practice while preserving optimality:

* **Gate-maximal cycles.**  Executing an extra problem gate never moves a
  qubit and only shrinks the remaining set, so any cycle that *could*
  include a further non-conflicting gate is dominated by the cycle that
  does.  The transition generator therefore only emits action sets in
  which every declined gate conflicts with a scheduled action — this
  replaces the full power-set recursion of the original implementation
  and eliminates the dominated swap-only subsets wholesale.
* **Spare-qubit canonicalization.**  A logical qubit whose last pending
  gate just executed can never matter again; its slot is rewritten to
  ``0`` (spare) so occupancies that differ only in the placement of
  finished qubits dedupe in ``best_g``.
* **Unhelpful-SWAP pruning** (``prune_unhelpful_swaps``, default on):
  a SWAP is considered only when it strictly reduces the distance of some
  remaining pair involving its qubits — sound for the clique/bi-clique
  inputs the solver is designed for, where every qubit always has pending
  partners.

The Definition 4 heuristic is evaluated *incrementally*: each expansion
computes per-qubit degree and position tables once, and every child
re-costs only the pairs whose endpoints an action touched, reusing the
parent's pair costs for the rest.

``strategy="idastar"`` swaps the best-first loop for iterative-deepening
A* — same transitions, same heuristic, no ``best_g``/``parents`` dicts —
bounding memory to the current path when an instance would otherwise
exhaust the node budget on dict growth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..arch.coupling import CouplingGraph
from ..exceptions import (SolverError, SolverExhaustedError,
                          SpecificationError)
from ..ir.circuit import Circuit
from ..ir.gates import Op, canonical_edge, canonical_edges
from ..ir.mapping import Mapping
from ..resilience.faults import fault_point
from .heuristic import pair_cost

Action = Tuple[str, int, int]  # ("gate"|"swap", physical u, physical v)
ActionSet = Tuple[Action, ...]
#: Canonical occupancy: ``occ[phys] = logical + 1``, ``0`` for a spare (or
#: finished) qubit.
Occupancy = Tuple[int, ...]
#: (actions, child occupancy, child remaining-mask, swap count, h value)
Child = Tuple[ActionSet, Occupancy, int, int, int]

STRATEGIES = ("astar", "idastar")


@dataclass
class SolverStats:
    """Search-effort counters for one :func:`solve_depth_optimal` run.

    Returned as :attr:`SolverResult.stats`; when the solver runs as the
    registered ``optimal`` method, :meth:`as_dict` is also copied into
    that compile's ``CompiledResult.extra["solver"]``.
    """

    strategy: str = "astar"
    #: Non-terminal states popped and expanded.
    nodes_expanded: int = 0
    #: Children pushed (A*) or recursed into (IDA*).
    nodes_generated: int = 0
    #: Children dropped because an equal-or-better ``g`` was already known
    #: (A*) or the state was already on the current path (IDA*).
    dedupe_hits: int = 0
    #: Largest open-list size (A*) or deepest path (IDA*) — the memory
    #: high-water mark of the chosen strategy.
    heap_peak: int = 0
    #: Definition-3 pair-cost evaluations; the incremental heuristic makes
    #: this grow with *touched* pairs, not with |remaining| per child.
    heuristic_evals: int = 0
    wall_time_s: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-data view for ``CompiledResult.extra`` / JSON dumps."""
        return {
            "strategy": self.strategy,
            "nodes_expanded": self.nodes_expanded,
            "nodes_generated": self.nodes_generated,
            "dedupe_hits": self.dedupe_hits,
            "heap_peak": self.heap_peak,
            "heuristic_evals": self.heuristic_evals,
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class SolverResult:
    """Outcome of an optimal search."""

    circuit: Circuit
    depth: int
    nodes_expanded: int
    initial_mapping: Mapping
    stats: SolverStats = field(default_factory=SolverStats)


def solve_depth_optimal(
    coupling: CouplingGraph,
    edges: Sequence[Tuple[int, int]],
    initial_mapping: Optional[Mapping] = None,
    gamma: float = 0.0,
    max_nodes: int = 500_000,
    prune_unhelpful_swaps: bool = True,
    use_heuristic: bool = True,
    minimize_swaps: bool = False,
    strategy: str = "astar",
) -> SolverResult:
    """Find a depth-minimal SWAP-inserted circuit (Definition 2).

    ``use_heuristic=False`` degrades A* to uniform-cost search (h = 0) —
    still optimal, vastly slower; tests use it to cross-check that the
    admissible heuristic never changes the returned depth.

    ``minimize_swaps=True`` implements the paper's stated future work
    (Section 4: the solver "only minimizes the depth ... we leave that as
    our future work"): a lexicographic objective (depth, then SWAP count)
    via scaled costs.  The per-cycle cost becomes ``SCALE + swaps`` with
    ``h`` scaled by ``SCALE``; since ``swaps per cycle < SCALE``, depth
    optimality is preserved and, among depth-optimal schedules, the
    returned one uses the fewest SWAPs.

    ``strategy`` selects ``"astar"`` (default; fastest, memory grows with
    the visited set) or ``"idastar"`` (iterative deepening; memory bounded
    by the schedule depth, re-expands nodes across iterations).  Both
    return identical depths; ``max_nodes`` bounds total expansions either
    way.
    """
    if strategy not in STRATEGIES:
        raise SpecificationError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    fault_point("solver.solve")
    started = time.perf_counter()
    stats = SolverStats(strategy=strategy)

    required = sorted(set(canonical_edges(edges)))
    n_logical = 1 + max((q for pair in required for q in pair), default=0)
    if initial_mapping is None:
        initial_mapping = Mapping.trivial(n_logical, coupling.n_qubits)

    inst = _Instance(coupling, required, n_logical,
                     prune_unhelpful_swaps, use_heuristic, stats)
    occ0, rem0 = inst.root_state(initial_mapping)
    scale = coupling.n_qubits + 1 if minimize_swaps else 1

    if strategy == "idastar":
        cycles = _search_idastar(inst, occ0, rem0, scale, minimize_swaps,
                                 max_nodes, stats)
    else:
        cycles = _search_astar(inst, occ0, rem0, scale, minimize_swaps,
                               max_nodes, stats)

    circuit = _replay(cycles, list(initial_mapping.phys_to_log),
                      coupling.n_qubits, gamma)
    stats.wall_time_s = time.perf_counter() - started
    return SolverResult(
        circuit=circuit,
        depth=len(cycles),
        nodes_expanded=stats.nodes_expanded,
        initial_mapping=initial_mapping,
        stats=stats,
    )


class _Instance:
    """Precomputed instance tables shared by both search strategies."""

    def __init__(
        self,
        coupling: CouplingGraph,
        required: List[Tuple[int, int]],
        n_logical: int,
        prune_swaps: bool,
        use_heuristic: bool,
        stats: SolverStats,
    ) -> None:
        self.n_logical = n_logical
        self.n_physical = coupling.n_qubits
        self.prune_swaps = prune_swaps
        self.use_heuristic = use_heuristic
        self.stats = stats
        self.edge_list: List[Tuple[int, int]] = required
        self.n_edges = len(required)
        self.edge_bit: Dict[Tuple[int, int], int] = {
            pair: index for index, pair in enumerate(required)}
        #: Per logical qubit, the bitmask of incident edge bits — pending
        #: degree is then one popcount against the remaining mask.
        self.incident: List[int] = [0] * n_logical
        for index, (u, v) in enumerate(required):
            self.incident[u] |= 1 << index
            self.incident[v] |= 1 << index
        #: Hop counts as plain nested lists: ~3x faster than scalar numpy
        #: indexing on this hot path.
        self.dist: List[List[int]] = [
            [int(d) for d in row] for row in coupling.distance_matrix]
        self.hw_edges: List[Tuple[int, int]] = sorted(coupling.edges)
        #: Bits per occupancy slot (values ``0..n_logical``).
        self.slot_bits = max(1, n_logical.bit_length())

    # -- state encoding -----------------------------------------------------

    def root_state(self, mapping: Mapping) -> Tuple[Occupancy, int]:
        """Canonical root occupancy + full remaining mask."""
        occ = [0] * self.n_physical
        for phys, logical in enumerate(mapping.phys_to_log):
            if (logical is not None and logical < self.n_logical
                    and self.incident[logical]):
                occ[phys] = logical + 1
        return tuple(occ), (1 << self.n_edges) - 1

    def encode(self, occ: Sequence[int], rem: int) -> int:
        """Pack (occupancy, remaining) into one integer dict key."""
        packed = 0
        for value in occ:
            packed = (packed << self.slot_bits) | value
        return (packed << self.n_edges) | rem

    # -- transition generation ----------------------------------------------

    def expand(self, occ: Occupancy, rem: int) -> List[Child]:
        """All non-dominated one-cycle transitions out of ``(occ, rem)``.

        (``fault_point("solver.expand")`` sits here so chaos tests can
        exhaust/abort a search mid-flight; it is a no-op — one global
        load — unless a fault plan is active.)

        Children carry their heuristic value, computed incrementally from
        this node's degree/position/pair-cost tables: only pairs with a
        touched endpoint (gate executed or qubit moved) are re-costed.
        """
        fault_point("solver.expand")
        incident = self.incident
        edge_list = self.edge_list
        dist = self.dist
        deg = [(rem & mask).bit_count() for mask in incident]
        pos = [0] * self.n_logical
        for phys, value in enumerate(occ):
            if value:
                pos[value - 1] = phys

        parent_cost = [0] * self.n_edges
        if self.use_heuristic:
            mask = rem
            evals = 0
            while mask:
                low = mask & -mask
                index = low.bit_length() - 1
                mask ^= low
                a, b = edge_list[index]
                parent_cost[index] = pair_cost(deg[a], deg[b],
                                               dist[pos[a]][pos[b]])
                evals += 1
            self.stats.heuristic_evals += evals

        gates, swaps = self._actions(occ, rem, pos)
        children: List[Child] = []
        for gate_set, swap_set in _action_sets(gates, swaps):
            child_rem = rem
            touched = 0
            occ_list = list(occ)
            for _u, _v, bit in gate_set:
                child_rem &= ~(1 << bit)
            deg_child = deg
            pos_child = pos
            if swap_set:
                pos_child = pos[:]
                for u, v in swap_set:
                    lu, lv = occ[u], occ[v]
                    occ_list[u], occ_list[v] = lv, lu
                    if lu:
                        pos_child[lu - 1] = v
                        touched |= 1 << (lu - 1)
                    if lv:
                        pos_child[lv - 1] = u
                        touched |= 1 << (lv - 1)
            if gate_set:
                deg_child = deg[:]
                for u, v, _bit in gate_set:
                    a, b = occ[u] - 1, occ[v] - 1
                    deg_child[a] = (child_rem & incident[a]).bit_count()
                    deg_child[b] = (child_rem & incident[b]).bit_count()
                    touched |= (1 << a) | (1 << b)
                    # Spare-qubit canonicalization: a finished qubit is
                    # indistinguishable from a spare from here on.
                    if not deg_child[a]:
                        occ_list[u] = 0
                    if not deg_child[b]:
                        occ_list[v] = 0

            h = 0
            if self.use_heuristic:
                evals = 0
                mask = child_rem
                while mask:
                    low = mask & -mask
                    index = low.bit_length() - 1
                    mask ^= low
                    a, b = edge_list[index]
                    if (touched >> a | touched >> b) & 1:
                        cost = pair_cost(deg_child[a], deg_child[b],
                                         dist[pos_child[a]][pos_child[b]])
                        evals += 1
                    else:
                        cost = parent_cost[index]
                    if cost > h:
                        h = cost
                self.stats.heuristic_evals += evals

            actions: ActionSet = tuple(
                [("gate", u, v) for u, v, _bit in gate_set]
                + [("swap", u, v) for u, v in swap_set])
            children.append((actions, tuple(occ_list), child_rem,
                             len(swap_set), h))
        return children

    def root_h(self, occ: Occupancy, rem: int) -> int:
        """Full (non-incremental) Definition-4 evaluation for the root."""
        if not self.use_heuristic or not rem:
            return 0
        deg = [(rem & mask).bit_count() for mask in self.incident]
        pos = [0] * self.n_logical
        for phys, value in enumerate(occ):
            if value:
                pos[value - 1] = phys
        h = 0
        mask = rem
        while mask:
            low = mask & -mask
            index = low.bit_length() - 1
            mask ^= low
            a, b = self.edge_list[index]
            cost = pair_cost(deg[a], deg[b], self.dist[pos[a]][pos[b]])
            self.stats.heuristic_evals += 1
            if cost > h:
                h = cost
        return h

    def _actions(
        self, occ: Occupancy, rem: int, pos: List[int],
    ) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int]]]:
        """Candidate gate and SWAP actions on hardware edges."""
        gates: List[Tuple[int, int, int]] = []
        swaps: List[Tuple[int, int]] = []
        for u, v in self.hw_edges:
            lu, lv = occ[u], occ[v]
            if lu and lv:
                bit = self.edge_bit.get(canonical_edge(lu - 1, lv - 1))
                if bit is not None and rem >> bit & 1:
                    gates.append((u, v, bit))
            if lu or lv:  # swapping two spares is the identity
                if (not self.prune_swaps
                        or self._swap_helps(u, v, occ, rem, pos)):
                    swaps.append((u, v))
        return gates, swaps

    def _swap_helps(self, u: int, v: int, occ: Occupancy, rem: int,
                    pos: List[int]) -> bool:
        """Does swapping (u, v) strictly reduce some remaining pair's
        distance?"""
        dist = self.dist
        for here, there in ((u, v), (v, u)):
            value = occ[here]
            if not value:
                continue
            qubit = value - 1
            row_here = dist[here]
            row_there = dist[there]
            mask = rem & self.incident[qubit]
            while mask:
                low = mask & -mask
                index = low.bit_length() - 1
                mask ^= low
                a, b = self.edge_list[index]
                partner_pos = pos[b if a == qubit else a]
                if row_there[partner_pos] < row_here[partner_pos]:
                    return True
        return False


def _action_sets(
    gates: List[Tuple[int, int, int]],
    swaps: List[Tuple[int, int]],
) -> List[Tuple[Tuple[Tuple[int, int, int], ...],
                Tuple[Tuple[int, int], ...]]]:
    """Non-empty, qubit-disjoint, *gate-maximal* action combinations.

    Gates are branched first; declining a gate records its qubit mask, and
    a leaf is emitted only when every declined gate conflicts with the
    chosen set — cycles that could still fit another gate are dominated
    (the extra gate moves nothing and strictly shrinks the remaining set),
    so they are never generated.
    """
    out: List[Tuple[Tuple[Tuple[int, int, int], ...],
                    Tuple[Tuple[int, int], ...]]] = []
    n_gates = len(gates)
    n_swaps = len(swaps)

    def over_swaps(index: int, used: int,
                   chosen_gates: Tuple[Tuple[int, int, int], ...],
                   chosen_swaps: Tuple[Tuple[int, int], ...],
                   declined: Tuple[int, ...]) -> None:
        if index == n_swaps:
            if chosen_gates or chosen_swaps:
                for mask in declined:
                    if not used & mask:
                        return  # a declined gate still fits: dominated
                out.append((chosen_gates, chosen_swaps))
            return
        u, v = swaps[index]
        mask = (1 << u) | (1 << v)
        if not used & mask:
            over_swaps(index + 1, used | mask, chosen_gates,
                       chosen_swaps + ((u, v),), declined)
        over_swaps(index + 1, used, chosen_gates, chosen_swaps, declined)

    def over_gates(index: int, used: int,
                   chosen: Tuple[Tuple[int, int, int], ...],
                   declined: Tuple[int, ...]) -> None:
        if index == n_gates:
            over_swaps(0, used, chosen, (), declined)
            return
        u, v, bit = gates[index]
        mask = (1 << u) | (1 << v)
        if used & mask:  # already blocked by an earlier choice
            over_gates(index + 1, used, chosen, declined)
            return
        over_gates(index + 1, used | mask, chosen + ((u, v, bit),), declined)
        over_gates(index + 1, used, chosen, declined + (mask,))

    over_gates(0, 0, (), ())
    return out


def _search_astar(
    inst: _Instance,
    occ0: Occupancy,
    rem0: int,
    scale: int,
    minimize_swaps: bool,
    max_nodes: int,
    stats: SolverStats,
) -> List[ActionSet]:
    """Best-first search; returns the optimal cycle list."""
    key0 = inst.encode(occ0, rem0)
    best_g: Dict[int, int] = {key0: 0}
    parents: Dict[int, Tuple[Optional[int], ActionSet]] = {key0: (None, ())}
    tie = count()
    h0 = inst.root_h(occ0, rem0)
    # Ties on f prefer the *larger* g (stored negated): states closer to a
    # goal pop first, which collapses the final-f plateau instead of
    # sweeping it breadth-first.  Optimality is unaffected — any goal
    # popped has f = g, still minimal over the open list.
    queue: List[Tuple[int, int, int, Occupancy, int]] = [
        (h0 * scale, 0, next(tie), occ0, rem0)]

    while queue:
        _f, neg_g, _, occ, rem = heappop(queue)
        g = -neg_g
        key = inst.encode(occ, rem)
        if g > best_g.get(key, g):
            continue  # stale entry; a cheaper path got here first
        if not rem:
            return _unwind(key, parents)
        stats.nodes_expanded += 1
        if stats.nodes_expanded > max_nodes:
            raise SolverExhaustedError(
                f"A* exceeded its node budget of {max_nodes}; "
                f"instance too large for the optimal solver")

        for actions, child_occ, child_rem, n_swaps, h in inst.expand(occ,
                                                                     rem):
            child_g = g + scale + (n_swaps if minimize_swaps else 0)
            child_key = inst.encode(child_occ, child_rem)
            previous = best_g.get(child_key)
            if previous is not None and child_g >= previous:
                stats.dedupe_hits += 1
                continue
            best_g[child_key] = child_g
            parents[child_key] = (key, actions)
            heappush(queue, (child_g + h * scale, -child_g, next(tie),
                             child_occ, child_rem))
            stats.nodes_generated += 1
        if len(queue) > stats.heap_peak:
            stats.heap_peak = len(queue)

    raise SolverError("search space exhausted without finding a schedule")


def _search_idastar(
    inst: _Instance,
    occ0: Occupancy,
    rem0: int,
    scale: int,
    minimize_swaps: bool,
    max_nodes: int,
    stats: SolverStats,
) -> List[ActionSet]:
    """Iterative-deepening A*; memory bounded by the schedule depth."""
    if not rem0:
        return []
    infinity = float("inf")
    path: List[ActionSet] = []
    on_path: Set[int] = {inst.encode(occ0, rem0)}

    def descend(occ: Occupancy, rem: int, g: int, bound: int) -> float:
        """Return 0 when solved within ``bound``, else the next bound."""
        stats.nodes_expanded += 1
        if stats.nodes_expanded > max_nodes:
            raise SolverExhaustedError(
                f"IDA* exceeded its node budget of {max_nodes}; "
                f"instance too large for the optimal solver")
        next_bound = infinity
        for actions, child_occ, child_rem, n_swaps, h in inst.expand(occ,
                                                                     rem):
            child_g = g + scale + (n_swaps if minimize_swaps else 0)
            f = child_g + h * scale
            if f > bound:
                if f < next_bound:
                    next_bound = f
                continue
            child_key = inst.encode(child_occ, child_rem)
            if child_key in on_path:
                stats.dedupe_hits += 1
                continue
            stats.nodes_generated += 1
            path.append(actions)
            if not child_rem:
                return 0.0
            on_path.add(child_key)
            if len(path) > stats.heap_peak:
                stats.heap_peak = len(path)
            below = descend(child_occ, child_rem, child_g, bound)
            if below == 0.0:
                return 0.0
            on_path.discard(child_key)
            path.pop()
            if below < next_bound:
                next_bound = below
        return next_bound

    bound = max(inst.root_h(occ0, rem0) * scale, scale)
    while True:
        outcome = descend(occ0, rem0, 0, bound)
        if outcome == 0.0:
            return list(path)
        if outcome == infinity:
            raise SolverError(
                "search space exhausted without finding a schedule")
        bound = int(outcome)


def _unwind(key: int, parents: Dict[int, Tuple[Optional[int], ActionSet]],
            ) -> List[ActionSet]:
    """Parent-chain walk from the goal key back to the root."""
    cycles: List[ActionSet] = []
    node: Optional[int] = key
    while node is not None:
        parent, actions = parents[node]
        if parent is None:
            break
        cycles.append(actions)
        node = parent
    cycles.reverse()
    return cycles


def _replay(cycles: List[ActionSet], occupancy: List[Optional[int]],
            n_physical: int, gamma: float) -> Circuit:
    """Rebuild the circuit by replaying cycles from the true root state.

    The search runs on *canonical* occupancies (finished qubits erased),
    but actions are physical, so replaying them over the uncanonicalized
    root occupancy recovers every gate's logical tag exactly.
    """
    circuit = Circuit(n_physical)
    for action_set in cycles:
        for kind, u, v in action_set:
            if kind == "gate":
                lu, lv = occupancy[u], occupancy[v]
                assert lu is not None and lv is not None
                circuit.append(
                    Op.cphase(u, v, gamma, tag=canonical_edge(lu, lv)))
        for kind, u, v in action_set:
            if kind == "swap":
                circuit.append(Op.swap(u, v))
                occupancy[u], occupancy[v] = occupancy[v], occupancy[u]
    return circuit
