"""Pattern executor: the one walk of an ATA schedule.

A :class:`Walk` follows a pattern's cycles with a live logical<->physical
placement and hands every action it keeps to a ``feed2(code, u, v)``
callback.  It applies the executor rules of Section 5.2: a ``gate``
opportunity whose logical pair does not need a CPHASE is skipped ("skip
the gates that are not in the practical circuit"), a SWAP between two
finished occupants is dropped, and the walk stops as soon as no needed
edges remain, so trailing pattern cycles cost nothing.

Any residual edges a pattern could not cover (possible only for heavy-hex
on irregular devices) are finished with plain shortest-path SWAPs,
keeping the overall compilation unconditionally correct.
:meth:`Walk.complete` is the one such router; Paulihedral and
:func:`greedy_completion` use it too.

:func:`ata_suffix` is the ATA-prediction component of Section 6.3, built
on those two:

* **Range detector** (:func:`detect_ranges`) — split the remaining
  problem graph into connected components, map each to the minimal
  structured sub-region of the architecture (via ``pattern.restrict``),
  and merge regions that overlap.  Disjoint regions run their patterns
  in parallel (ASAP layering overlaps them automatically).
* **Pattern generator** — walk each region's pattern from the current
  mapping, skipping absent gates and stopping at the last needed one.

The same walk both scores and builds.  :mod:`repro.ata.simulate` feeds
it to a ``MetricTracker`` to score a candidate without a circuit;
:func:`execute_pattern` and :func:`ata_suffix` feed it to
:meth:`Walk.sink`, which appends the ops to a :class:`Circuit`.  A
schedule therefore cannot score one way and materialise another.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set, Tuple

from ..arch.coupling import CouplingGraph
from ..ir.circuit import Circuit
from ..ir.gates import Op, canonical_edges
from ..ir.mapping import Mapping
from ..problems.graphs import edge_components
from .base import GATE, Action, AtaPattern

#: Op-kind codes a walk passes to ``feed2``.  The two kinds that can
#: fuse take the lowest codes, so a tracker tests ``code <= K_SWAP``.
K_CPHASE = 0
K_SWAP = 1

#: One pattern action as the walk reads it: ``(is_gate, u, v)``.
CompiledCycle = Tuple[Tuple[bool, int, int], ...]

#: The per-action callback of a walk: ``feed2(code, u, v)``.
Feed = Callable[[int, int, int], None]


def _compile_cycle(cycle: Iterable[Action]) -> CompiledCycle:
    return tuple((action == GATE, u, v) for action, u, v in cycle)


def compiled_cycles(pattern: AtaPattern) -> List[CompiledCycle]:
    """The pattern's schedule as ``(is_gate, u, v)`` tuples, cached on it.

    Memoised on the instance — combined with the restrict memo and the
    registry pattern cache, repeated walks of the same (sub-)pattern
    cost O(1) lookups.  Patterns exposing a ``_compiled_plan`` (a
    ``(distinct cycles, schedule)`` pair) convert each distinct cycle
    once and share it across the schedule by reference; everything else
    walks ``cycles()`` once.
    """
    compiled: Optional[List[CompiledCycle]] = getattr(
        pattern, "_compiled_cycles", None)
    if compiled is not None:
        return compiled
    plan = getattr(pattern, "_compiled_plan", None)
    if plan is not None:
        distinct, schedule = plan()
        built = [_compile_cycle(cycle) for cycle in distinct]
        compiled = [built[index] for index in schedule]
    else:
        compiled = [_compile_cycle(cycle) for cycle in pattern.cycles()]
    pattern._compiled_cycles = compiled  # type: ignore[attr-defined]
    return compiled


class Walk:
    """Placement and pending-pair state of one walk of an ATA schedule.

    ``p2l[q]`` is the logical on physical ``q``, or -1 for a spare.  A
    pending pair ``(a, b)`` is stored as both ``a*stride+b`` and
    ``b*stride+a`` with ``stride = n_log + 1``, and ``degree`` has one
    extra slot that stays 0, so ``degree[-1]`` reads a spare as
    finished.  A spare never matches a key either: a product with a -1
    factor is negative, and ``a*stride - 1`` names the non-logical
    ``n_log`` as its partner.
    """

    def __init__(self, mapping: Mapping,
                 edges: Iterable[Tuple[int, int]]) -> None:
        self.initial = mapping
        self.edges: Set[Tuple[int, int]] = set(canonical_edges(edges))
        n_log = mapping.n_logical
        stride = n_log + 1
        self.stride = stride
        self.p2l = [-1] * mapping.n_physical
        for logical, physical in enumerate(mapping.log_to_phys):
            self.p2l[physical] = logical
        self.needed: Set[int] = set()
        self.degree = [0] * stride
        for a, b in self.edges:  # det: ok — counts only
            self.needed.add(a * stride + b)
            self.needed.add(b * stride + a)
            self.degree[a] += 1
            self.degree[b] += 1

    def done(self, a: int, b: int) -> None:
        """Mark the pair ``(a, b)`` executed."""
        self.needed.discard(a * self.stride + b)
        self.needed.discard(b * self.stride + a)
        self.degree[a] -= 1
        self.degree[b] -= 1

    def mapping(self) -> Mapping:
        """The walk's current placement."""
        log_to_phys = [0] * self.initial.n_logical
        for physical, logical in enumerate(self.p2l):
            if logical >= 0:
                log_to_phys[logical] = physical
        return Mapping(log_to_phys, len(self.p2l))

    def sink(self, circuit: Circuit, gamma: float) -> Feed:
        """A ``feed2`` that appends each walked action to ``circuit``.

        A CPHASE is tagged with the canonical logical pair it runs, read
        from ``p2l`` (a gate moves no qubit, so ``p2l`` holds the pair
        when it is fed).
        """
        p2l = self.p2l
        append = circuit.append

        def feed2(code: int, u: int, v: int) -> None:
            if code == K_CPHASE:
                a = p2l[u]
                b = p2l[v]
                append(Op.cphase(u, v, gamma,
                                 tag=(a, b) if a < b else (b, a)))
            else:
                append(Op.swap(u, v))
        return feed2

    def region(self, pattern: AtaPattern, edges: Set[Tuple[int, int]],
               feed2: Feed, stop: Optional[Callable[[], bool]] = None
               ) -> Optional[List[Tuple[int, int]]]:
        """Walk one region's pattern until its ``edges`` are executed.

        Inside a cycle a qubit takes part in at most one action, first
        come first served.  Returns the region's residual pairs in
        sorted order (the order :meth:`complete` consumes them), or
        ``None`` once ``stop`` fires after a cycle.
        """
        count = len(edges)
        if not count:
            return []
        p2l = self.p2l
        needed = self.needed
        degree = self.degree
        stride = self.stride
        # ``used[q] == stamp`` while an action fed in the current cycle
        # holds ``q``.
        used = [0] * len(p2l)
        stamp = 0
        for cycle in compiled_cycles(pattern):
            stamp += 1
            for is_gate, u, v in cycle:
                lu = p2l[u]
                lv = p2l[v]
                if is_gate:
                    if (lu * stride + lv not in needed
                            or used[u] == stamp or used[v] == stamp):
                        continue
                    self.done(lu, lv)
                    count -= 1
                    feed2(K_CPHASE, u, v)
                else:
                    # Moving two finished occupants is a no-op: dropped.
                    if (not (degree[lu] or degree[lv])
                            or used[u] == stamp or used[v] == stamp):
                        continue
                    p2l[u] = lv
                    p2l[v] = lu
                    feed2(K_SWAP, u, v)
                used[u] = stamp
                used[v] = stamp
            if not count:
                return []
            if stop is not None and stop():
                return None
        return sorted(e for e in edges if e[0] * stride + e[1] in needed)

    def complete(self, coupling: CouplingGraph,
                 residual: Iterable[Tuple[int, int]], feed2: Feed,
                 stop: Optional[Callable[[], bool]] = None) -> bool:
        """Route each pair ``(lu, lv)``: ``lv`` walks a shortest path to
        ``lu`` with SWAPs, then the gate runs, as the per-gate baselines
        do.  True once ``stop`` fires after a completed pair."""
        p2l = self.p2l
        l2p = {logical: physical for physical, logical in enumerate(p2l)
               if logical >= 0}
        for lu, lv in residual:
            path = coupling.shortest_path(l2p[lu], l2p[lv])
            for k in range(len(path) - 1, 1, -1):
                a, b = path[k], path[k - 1]
                feed2(K_SWAP, a, b)
                la = p2l[a]
                lb = p2l[b]
                p2l[a] = lb
                p2l[b] = la
                l2p[la] = b
                l2p[lb] = a
            feed2(K_CPHASE, path[0], path[1])
            self.done(lu, lv)
            if stop is not None and stop():
                return True
        return False

    def suffix(self, coupling: CouplingGraph, pattern: AtaPattern,
               feed2: Feed, use_range_detection: bool = True,
               stop: Optional[Callable[[], bool]] = None) -> bool:
        """Walk :func:`ata_suffix`'s schedule for every pending edge.

        Range detection, then per region the pattern walk and residual
        completion.  Returns True when ``stop`` fired (on entry, after a
        cycle or after a residual pair) and the suffix was left
        unfinished.
        """
        edges = self.edges
        if not edges:
            return False
        if stop is not None and stop():
            return True
        plan = (detect_ranges(pattern, self.initial, edges)
                if use_range_detection else [(pattern, edges)])
        for region_pattern, group in plan:
            residual = self.region(region_pattern, group, feed2, stop)
            if residual is None:
                return True
            if residual and self.complete(coupling, residual, feed2, stop):
                return True
        return False


def execute_pattern(
    pattern: AtaPattern,
    initial_mapping: Mapping,
    edges: Iterable[Tuple[int, int]],
    gamma: float = 0.0,
    circuit: Optional[Circuit] = None,
    n_physical: Optional[int] = None,
) -> Tuple[Circuit, Mapping, Set[Tuple[int, int]]]:
    """Run a pattern until all ``edges`` (logical pairs) are executed.

    Returns ``(circuit, final_mapping, residual_edges)``.  ``circuit`` may
    be passed in to append onto an existing prefix.
    """
    if circuit is None:
        circuit = Circuit(n_physical or initial_mapping.n_physical)
    walk = Walk(initial_mapping, edges)
    residual = walk.region(pattern, walk.edges, walk.sink(circuit, gamma))
    assert residual is not None  # no ``stop``: walked to the end
    return circuit, walk.mapping(), set(residual)


def greedy_completion(
    coupling: CouplingGraph,
    circuit: Circuit,
    mapping: Mapping,
    residual: Set[Tuple[int, int]],
    gamma: float = 0.0,
) -> None:
    """Route any residual logical pairs with plain shortest-path SWAPs.

    Mutates ``circuit`` and ``mapping`` in place and clears ``residual``.
    Intended for the rare leftovers of the heavy-hex two-pass schedule
    and for the per-gate baselines' fallbacks; correctness matters here,
    not optimality.
    """
    walk = Walk(mapping, residual)
    walk.complete(coupling, sorted(residual), walk.sink(circuit, gamma))
    final = walk.mapping()
    mapping.log_to_phys[:] = final.log_to_phys
    mapping.phys_to_log[:] = final.phys_to_log
    residual.clear()


def detect_ranges(
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
) -> List[Tuple[AtaPattern, Set[Tuple[int, int]]]]:
    """Regions (restricted patterns) with their edge groups, Fig 19 style.

    Overlapping regions are merged with a union-find sweep over a
    qubit-ownership map: each round costs O(total region qubits), merges
    every currently-overlapping cluster transitively, and re-restricts
    only clusters that actually grew.  Region bounding boxes only grow
    under union, so any overlap persists until merged — the result is
    the same least fixpoint the quadratic restart-on-every-merge loop
    computed, with final regions never re-restricted.  ``remaining``
    holds canonical logical pairs.
    """
    remaining = list(remaining)
    if not remaining:
        return []
    # Iterating a frozenset of the pairs gives the component order that
    # ``ProblemGraph(n, remaining).connected_components()`` gives.
    components = edge_components(mapping.n_logical, frozenset(remaining))

    groups: List[Set[int]] = [set(c) for c in components]
    regions: List[AtaPattern] = [
        pattern.restrict({mapping.physical(v) for v in group})
        for group in groups]

    n = len(regions)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while True:
        owner: dict = {}
        grew: Set[int] = set()
        for i in range(n):
            if find(i) != i:
                continue
            for q in regions[i].region:
                j = find(owner.setdefault(q, i))
                if j != i:
                    # Keep the smaller original index as representative —
                    # the order the pairwise loop preserved.
                    keep, gone = (i, j) if i < j else (j, i)
                    parent[gone] = keep
                    groups[keep] |= groups[gone]
                    grew.add(keep)
                    if find(i) != i:
                        break  # region i itself was absorbed
        if not grew:
            break
        for i in sorted(grew):
            if find(i) == i:
                regions[i] = pattern.restrict(
                    {mapping.physical(v) for v in groups[i]})

    order = [i for i in range(n) if find(i) == i]
    edge_groups: List[Set[Tuple[int, int]]] = []
    for i in order:
        group = groups[i]
        edge_groups.append({e for e in remaining if e[0] in group})
    return [(regions[i], edge_group)
            for i, edge_group in zip(order, edge_groups)]


def ata_suffix(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    gamma: float = 0.0,
    use_range_detection: bool = True,
    circuit: Optional[Circuit] = None,
) -> Tuple[Circuit, Mapping]:
    """Finish the remaining edges by following the structured pattern.

    Returns the (possibly extended) circuit and the final mapping.  Ops for
    disjoint regions are appended sequentially; ASAP layering parallelises
    them, so the reported depth equals the max over regions.
    """
    if circuit is None:
        circuit = Circuit(coupling.n_qubits)
    walk = Walk(mapping, remaining)
    walk.suffix(coupling, pattern, walk.sink(circuit, gamma),
                use_range_detection)
    return circuit, walk.mapping()
