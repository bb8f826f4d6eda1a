"""Pattern executor: the one walk of an ATA schedule.

A :class:`Walk` follows a pattern's cycles with a live logical<->physical
placement and hands the actions it keeps to a ``feed(ops)`` callback, one
call per cycle, each op a ``(code, u, v)`` triple on physical qubits.  It
applies the executor rules of Section 5.2: a ``gate``
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
  in parallel (ASAP layering overlaps them automatically).  The
  candidate pass hands it each snapshot's components as labels
  (:func:`label_components`) instead of running a union-find per
  candidate.
* **Pattern generator** — walk each region's pattern from the current
  mapping, skipping absent gates and stopping at the last needed one.

A candidate's walk starts from a state the snapshot replay keeps up to
date (:meth:`Walk.follow`, :meth:`Walk.resume`): three copies instead of
a rebuild of the pending pairs from the remaining edges.

The same walk both scores and builds.  :mod:`repro.ata.simulate` feeds
it to ``MetricTracker.feed`` to score a candidate without a circuit;
:func:`execute_pattern` and :func:`ata_suffix` feed it to
:meth:`Walk.sink`, which appends the ops to a :class:`Circuit`.  A
schedule therefore cannot score one way and materialise another.

The walk is cycle-batched.  :func:`compiled_cycles` stores each cycle's
actions as the ``(code, u, v)`` triples the consumers take, so a kept
action is passed on as it is, and flags each cycle whose actions are all
of one kind on pairwise disjoint qubits (every cycle of every pattern
except heavy-hex's interleaves).  Such a cycle needs neither the
first-come qubit stamps nor a per-action kind test.  Kept actions of
one cycle never share a qubit, so a consumer that reads the placement
when the batch arrives (the sink's CPHASE tags) reads what each action
saw.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from ..arch.coupling import CouplingGraph
from ..ir.circuit import Circuit
from ..ir.gates import CPHASE, SWAP, Op, canonical_edges
from ..ir.mapping import Mapping
from ..ir.tracker import K_CPHASE, K_SWAP, Ops
from ..problems.graphs import edge_components
from .base import GATE, Action, AtaPattern

#: The kind flag of a cycle that mixes kinds or reuses a qubit: the walk
#: stamps qubits first come, first served and tests each action's kind.
STAMPED = -1

#: One pattern cycle as the walk reads it: ``(flag, ops)``, ``flag`` being
#: ``K_CPHASE`` or ``K_SWAP`` when every op is of that kind and no two
#: share a qubit, else :data:`STAMPED`.
CompiledCycle = Tuple[int, Tuple[Tuple[int, int, int], ...]]

#: The consumer of a walk, called once per cycle or routed pair with the
#: kept ops in order.
Feed = Callable[[Ops], None]


def _compile_cycle(cycle: Iterable[Action]) -> CompiledCycle:
    ops = tuple((K_CPHASE if action == GATE else K_SWAP, u, v)
                for action, u, v in cycle)
    codes = {code for code, _, _ in ops}
    qubits = {q for _, u, v in ops for q in (u, v)}
    if len(codes) > 1 or len(qubits) < 2 * len(ops):
        return STAMPED, ops
    # An empty cycle keeps nothing, whichever loop walks it.
    return (codes.pop() if codes else K_SWAP), ops


def compiled_cycles(pattern: AtaPattern) -> List[CompiledCycle]:
    """The pattern's schedule as ``(flag, ops)`` cycles, cached on it.

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
    ``n_log`` as its partner.  ``labels``, when set, are the components
    of ``edges`` as :func:`repro.compiler.greedy.snapshot_labels` gives
    them, and range detection reads them instead of a union-find.
    """

    labels: Optional[Sequence[int]] = None

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
        edges = self.edges
        needed = {a * stride + b for a, b in edges}  # det: ok — a set
        needed.update([b * stride + a for a, b in edges])  # det: ok — a set
        self.needed: Set[int] = needed
        self.degree = degree = [0] * stride
        for a, b in edges:  # det: ok — counts only
            degree[a] += 1
            degree[b] += 1

    @classmethod
    def resume(cls, state: "Walk", mapping: Mapping,
               edges: FrozenSet[Tuple[int, int]],
               labels: Optional[Sequence[int]] = None) -> "Walk":
        """``Walk(mapping, edges)`` from a walk already in that state.

        ``state`` holds ``mapping``'s placement with exactly the
        canonical ``edges`` pending (a walk over the initial placement
        and problem edges that :meth:`follow` kept up to date); its
        placement, pending keys and degrees are copied, not rebuilt.
        ``labels`` name the components of ``edges``.
        """
        walk = cls.__new__(cls)
        walk.initial = mapping
        # The set ``canonical_edges`` builds from canonical pairs, copied
        # as ``__init__`` copies it: the same construction, so the same
        # iteration order, which fixes range detection's region order.
        walk.edges = set(frozenset(list(edges)))
        walk.stride = state.stride
        walk.p2l = state.p2l.copy()
        walk.needed = state.needed.copy()
        walk.degree = state.degree.copy()
        walk.labels = labels
        return walk

    def done(self, a: int, b: int) -> None:
        """Mark the pair ``(a, b)`` executed."""
        self.needed.discard(a * self.stride + b)
        self.needed.discard(b * self.stride + a)
        self.degree[a] -= 1
        self.degree[b] -= 1

    def follow(self, ops: Sequence[Op]) -> None:
        """Apply a stretch of a compiled circuit to the walk's state: a
        SWAP exchanges its qubits' occupants and a CPHASE marks its
        tag, a canonical logical pair, executed."""
        p2l = self.p2l
        needed = self.needed
        degree = self.degree
        stride = self.stride
        for op in ops:
            kind = op.kind
            if kind == SWAP:
                u, v = op.qubits
                p2l[u], p2l[v] = p2l[v], p2l[u]
            elif kind == CPHASE:
                a, b = op.tag
                needed.discard(a * stride + b)
                needed.discard(b * stride + a)
                degree[a] -= 1
                degree[b] -= 1

    def mapping(self) -> Mapping:
        """The walk's current placement."""
        log_to_phys = [0] * self.initial.n_logical
        for physical, logical in enumerate(self.p2l):
            if logical >= 0:
                log_to_phys[logical] = physical
        return Mapping(log_to_phys, len(self.p2l))

    def sink(self, circuit: Circuit, gamma: float) -> Feed:
        """A ``feed`` that appends each walked op to ``circuit``.

        A CPHASE is tagged with the canonical logical pair it runs, read
        from ``p2l`` when its batch arrives: no op of the same batch
        after it moves either of its qubits.
        """
        p2l = self.p2l
        append = circuit.append

        def feed(ops: Ops) -> None:
            for code, u, v in ops:
                if code == K_CPHASE:
                    a = p2l[u]
                    b = p2l[v]
                    append(Op.cphase(u, v, gamma,
                                     tag=(a, b) if a < b else (b, a)))
                else:
                    append(Op.swap(u, v))
        return feed

    def region(self, pattern: AtaPattern, edges: Set[Tuple[int, int]],
               feed: Feed, stop: Optional[Callable[[], bool]] = None
               ) -> Optional[List[Tuple[int, int]]]:
        """Walk one region's pattern until its ``edges`` are executed.

        Inside a cycle a qubit takes part in at most one action, first
        come first served; each cycle's kept actions go to ``feed`` in
        one call.  Returns the region's residual pairs in sorted order
        (the order :meth:`complete` consumes them), or ``None`` once
        ``stop`` fires after a cycle.
        """
        count = len(edges)
        if not count:
            return []
        p2l = self.p2l
        needed = self.needed
        discard = needed.discard
        degree = self.degree
        stride = self.stride
        # ``used[q] == stamp`` while an action kept in the current
        # stamped cycle holds ``q``.
        used: List[int] = []
        stamp = 0
        for flag, cycle in compiled_cycles(pattern):
            kept: List[Tuple[int, int, int]] = []
            keep = kept.append
            # Flagged cycles are single-kind on disjoint qubits: no stamps.
            if flag == K_CPHASE:
                for op in cycle:
                    lu = p2l[op[1]]
                    lv = p2l[op[2]]
                    key = lu * stride + lv
                    if key in needed:
                        discard(key)
                        discard(lv * stride + lu)
                        degree[lu] -= 1
                        degree[lv] -= 1
                        keep(op)
                count -= len(kept)
            elif flag == K_SWAP:
                for op in cycle:
                    _, u, v = op
                    lu = p2l[u]
                    lv = p2l[v]
                    # Moving two finished occupants is a no-op: dropped.
                    if degree[lu] or degree[lv]:
                        p2l[u] = lv
                        p2l[v] = lu
                        keep(op)
            else:
                if not used:
                    used = [0] * len(p2l)
                stamp += 1
                for op in cycle:
                    code, u, v = op
                    if used[u] == stamp or used[v] == stamp:
                        continue
                    lu = p2l[u]
                    lv = p2l[v]
                    if code == K_CPHASE:
                        if lu * stride + lv not in needed:
                            continue
                        self.done(lu, lv)
                        count -= 1
                    else:
                        if not (degree[lu] or degree[lv]):
                            continue
                        p2l[u] = lv
                        p2l[v] = lu
                    keep(op)
                    used[u] = stamp
                    used[v] = stamp
            if kept:
                feed(kept)
            if not count:
                return []
            if stop is not None and stop():
                return None
        return sorted(e for e in edges if e[0] * stride + e[1] in needed)

    def complete(self, coupling: CouplingGraph,
                 residual: Iterable[Tuple[int, int]], feed: Feed,
                 stop: Optional[Callable[[], bool]] = None) -> bool:
        """Route each pair ``(lu, lv)``: ``lv`` walks a shortest path to
        ``lu`` with SWAPs, then the gate runs, as the per-gate baselines
        do.  Each pair's SWAPs and gate go to ``feed`` in one call.  True
        once ``stop`` fires after a completed pair."""
        p2l = self.p2l
        l2p = {logical: physical for physical, logical in enumerate(p2l)
               if logical >= 0}
        for lu, lv in residual:
            path = coupling.shortest_path(l2p[lu], l2p[lv])
            ops = []
            for k in range(len(path) - 1, 1, -1):
                a, b = path[k], path[k - 1]
                ops.append((K_SWAP, a, b))
                la = p2l[a]
                lb = p2l[b]
                p2l[a] = lb
                p2l[b] = la
                l2p[la] = b
                l2p[lb] = a
            ops.append((K_CPHASE, path[0], path[1]))
            feed(ops)
            self.done(lu, lv)
            if stop is not None and stop():
                return True
        return False

    def suffix(self, coupling: CouplingGraph, pattern: AtaPattern,
               feed: Feed, use_range_detection: bool = True,
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
        plan = (detect_ranges(pattern, self.initial, edges, self.labels)
                if use_range_detection else [(pattern, edges)])
        for region_pattern, group in plan:
            residual = self.region(region_pattern, group, feed, stop)
            if residual is None:
                return True
            if residual and self.complete(coupling, residual, feed, stop):
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


def label_components(labels: Sequence[int],
                     edges: Iterable[Tuple[int, int]]) -> List[Set[int]]:
    """The components ``labels`` name, in :func:`detect_ranges`'s order.

    ``labels[v]`` is vertex ``v``'s component label, or -1 when no edge
    of ``edges`` touches it.  The result equals
    ``edge_components(len(labels), frozenset(list(edges)))``: components
    in the order their first edge appears in that frozenset.  Only a
    graph of several components builds the frozenset, and its scan stops
    once every label has been seen.
    """
    groups: Dict[int, Set[int]] = {}
    for vertex, label in enumerate(labels):
        if label >= 0:
            group = groups.get(label)
            if group is None:
                groups[label] = {vertex}
            else:
                group.add(vertex)
    if len(groups) < 2:
        return list(groups.values())
    order: Dict[int, None] = {}
    for u, _ in frozenset(list(edges)):  # det: ok — edge_components' order
        order.setdefault(labels[u])
        if len(order) == len(groups):
            break
    return [groups[label] for label in order]


def detect_ranges(
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    labels: Optional[Sequence[int]] = None,
) -> List[Tuple[AtaPattern, Set[Tuple[int, int]]]]:
    """Regions (restricted patterns) with their edge groups, Fig 19 style.

    Overlapping regions are merged with a union-find sweep over a
    qubit-ownership map: each round costs O(total region qubits), merges
    every currently-overlapping cluster transitively, and re-restricts
    only clusters that actually grew.  Region bounding boxes only grow
    under union, so any overlap persists until merged — the result is
    the same least fixpoint the quadratic restart-on-every-merge loop
    computed, with final regions never re-restricted.  ``remaining``
    holds canonical logical pairs; ``labels``, when given, are their
    components as :func:`label_components` reads them, and ``remaining``
    must then be a collection.
    """
    if labels is None:
        remaining = list(remaining)
        # Iterating a frozenset of the pairs gives the component order
        # that ``ProblemGraph(n, remaining).connected_components()``
        # gives.
        groups: List[Set[int]] = [set(c) for c in edge_components(
            mapping.n_logical, frozenset(remaining))]
    else:
        groups = label_components(labels, remaining)
    if not groups:
        return []

    l2p = mapping.log_to_phys
    regions: List[AtaPattern] = [
        pattern.restrict({l2p[v] for v in group}) for group in groups]

    n = len(regions)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while n > 1:  # a lone region has nothing to merge with
        owner: dict = {}
        grew: Set[int] = set()
        for i in range(n):
            if find(i) != i:
                continue
            for q in regions[i].qubits():
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
                regions[i] = pattern.restrict({l2p[v] for v in groups[i]})

    order = [i for i in range(n) if find(i) == i]
    if len(order) == 1:
        return [(regions[order[0]], set(remaining))]
    # Each pair lies inside one merged group: file it by its first qubit.
    slot = {v: k for k, i in enumerate(order) for v in groups[i]}
    edge_groups: List[Set[Tuple[int, int]]] = [set() for _ in order]
    for edge in remaining:
        edge_groups[slot[edge[0]]].add(edge)
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
