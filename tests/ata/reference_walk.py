"""The per-op ATA walk and metric tracker the batched walk must reproduce.

A frozen copy of the schedule walk as it stood before the walk handed
each cycle's kept actions to its consumer in one call: the walk reads a
pattern's cycles as ``(is_gate, u, v)`` tuples, stamps qubits first come,
first served in every cycle, and calls ``feed2(code, u, v)`` once per kept
action; the tracker folds one op per call.  Range detection is the
version that read each region's ``region`` frozenset.

Production runs the same schedules through ``repro.ata.executor.Walk``
and ``MetricTracker.feed``; the differential tests in
``test_reference_walk.py`` assert that candidate metrics (stopped early
or not), materialised circuits and final mappings are identical.
"""

import math
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.arch.coupling import CouplingGraph
from repro.arch.noise import NoiseModel
from repro.ata.base import GATE, AtaPattern
from repro.baselines.paulihedral import matching_layers
from repro.compiler.mapping import degree_placement
from repro.ir.circuit import Circuit
from repro.ir.gates import CPHASE, CX, SWAP, Op, canonical_edges
from repro.ir.mapping import Mapping
from repro.problems.graphs import ProblemGraph, edge_components

K_CPHASE = 0
K_SWAP = 1
K_CX = 2
K_OTHER = 3

_KIND_CODE = {CPHASE: K_CPHASE, SWAP: K_SWAP, CX: K_CX}
_STANDALONE_CX = (2, 3, 1, 0)

Feed2 = Callable[[int, int, int], None]


def reference_cycles(pattern: AtaPattern
                     ) -> List[Tuple[Tuple[bool, int, int], ...]]:
    """The schedule as ``(is_gate, u, v)`` tuples (not cached)."""
    def compile_cycle(cycle):
        return tuple((action == GATE, u, v) for action, u, v in cycle)

    plan = getattr(pattern, "_compiled_plan", None)
    if plan is not None:
        distinct, schedule = plan()
        built = [compile_cycle(cycle) for cycle in distinct]
        return [built[index] for index in schedule]
    return [compile_cycle(cycle) for cycle in pattern.cycles()]


class ReferenceTracker:
    """Streaming depth / fused CX count / esp, one op per call."""

    def __init__(self, n_qubits: int,
                 noise: Optional[NoiseModel] = None) -> None:
        self.noise = noise
        self.busy = [0] * n_qubits
        self.depth = 0
        self.cx = 0
        self.held_partner = [-1] * n_qubits
        self.held_kind = [0] * n_qubits
        self.n_single = 0
        self.edge_cx: Optional[List[int]] = None
        if noise is not None:
            self.edge_index: Dict[Tuple[int, int], int] = {
                edge: index for index, edge in enumerate(noise.cx_error)}
            self.log_keep = [math.log1p(-error)
                             for error in noise.cx_error.values()]
            self.edge_cx = [0] * len(self.edge_index)

    def copy(self) -> "ReferenceTracker":
        clone = ReferenceTracker.__new__(ReferenceTracker)
        clone.__dict__.update(self.__dict__)
        clone.busy = self.busy[:]
        clone.held_partner = self.held_partner[:]
        clone.held_kind = self.held_kind[:]
        if self.edge_cx is not None:
            clone.edge_cx = self.edge_cx[:]
        return clone

    def feed2(self, code: int, u: int, v: int) -> None:
        busy = self.busy
        bu = busy[u]
        bv = busy[v]
        end = (bu if bu >= bv else bv) + 1
        busy[u] = end
        busy[v] = end
        if end > self.depth:
            self.depth = end

        held = self.held_partner
        kind = self.held_kind
        held_u = held[u]
        if held_u == v and kind[u] != code and code <= K_SWAP:
            n_cx = 3 - _STANDALONE_CX[kind[u]]
            held[u] = -1
            held[v] = -1
        else:
            if held_u >= 0:
                held[held_u] = -1
            held_v = held[v]
            if held_v >= 0:
                held[held_v] = -1
            n_cx = _STANDALONE_CX[code]
            if code <= K_SWAP:
                held[u] = v
                held[v] = u
                kind[u] = code
                kind[v] = code
            else:
                held[u] = -1
                held[v] = -1
        self.cx += n_cx
        if self.edge_cx is not None:
            self.edge_cx[self.edge_index[(u, v) if u < v else (v, u)]] += n_cx

    def feed_op(self, op: Op) -> None:
        qubits = op.qubits
        if len(qubits) == 2:
            self.feed2(_KIND_CODE.get(op.kind, K_OTHER),
                       qubits[0], qubits[1])
            return
        busy = self.busy
        held = self.held_partner
        end = max(busy[q] for q in qubits) + 1
        if end > self.depth:
            self.depth = end
        for q in qubits:
            busy[q] = end
            if held[q] >= 0:
                held[held[q]] = -1
                held[q] = -1
        if len(qubits) == 1:
            self.n_single += 1

    def finalize(self) -> Tuple[int, int, Optional[float]]:
        depth = self.depth
        if self.noise is None or self.edge_cx is None:
            return depth, self.cx, None
        terms = [n * keep for n, keep in zip(self.edge_cx, self.log_keep)]
        terms.append(self.n_single * math.log1p(-self.noise.sq_error))
        return depth, self.cx, math.exp(math.fsum(terms))


class ReferenceWalk:
    """Placement and pending pairs of one per-op walk."""

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
        for a, b in self.edges:
            self.needed.add(a * stride + b)
            self.needed.add(b * stride + a)
            self.degree[a] += 1
            self.degree[b] += 1

    def done(self, a: int, b: int) -> None:
        self.needed.discard(a * self.stride + b)
        self.needed.discard(b * self.stride + a)
        self.degree[a] -= 1
        self.degree[b] -= 1

    def mapping(self) -> Mapping:
        log_to_phys = [0] * self.initial.n_logical
        for physical, logical in enumerate(self.p2l):
            if logical >= 0:
                log_to_phys[logical] = physical
        return Mapping(log_to_phys, len(self.p2l))

    def sink(self, circuit: Circuit, gamma: float) -> Feed2:
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
               feed2: Feed2, stop: Optional[Callable[[], bool]] = None
               ) -> Optional[List[Tuple[int, int]]]:
        count = len(edges)
        if not count:
            return []
        p2l = self.p2l
        needed = self.needed
        degree = self.degree
        stride = self.stride
        used = [0] * len(p2l)
        stamp = 0
        for cycle in reference_cycles(pattern):
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
                 residual: Iterable[Tuple[int, int]], feed2: Feed2,
                 stop: Optional[Callable[[], bool]] = None) -> bool:
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
               feed2: Feed2, use_range_detection: bool = True,
               stop: Optional[Callable[[], bool]] = None) -> bool:
        edges = self.edges
        if not edges:
            return False
        if stop is not None and stop():
            return True
        plan = (reference_detect_ranges(pattern, self.initial, edges)
                if use_range_detection else [(pattern, edges)])
        for region_pattern, group in plan:
            residual = self.region(region_pattern, group, feed2, stop)
            if residual is None:
                return True
            if residual and self.complete(coupling, residual, feed2, stop):
                return True
        return False


def reference_detect_ranges(
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
) -> List[Tuple[AtaPattern, Set[Tuple[int, int]]]]:
    """Union-find region merging over each region's frozenset."""
    remaining = list(remaining)
    if not remaining:
        return []
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
                    keep, gone = (i, j) if i < j else (j, i)
                    parent[gone] = keep
                    groups[keep] |= groups[gone]
                    grew.add(keep)
                    if find(i) != i:
                        break
        if not grew:
            break
        for i in sorted(grew):
            if find(i) == i:
                regions[i] = pattern.restrict(
                    {mapping.physical(v) for v in groups[i]})

    order = [i for i in range(n) if find(i) == i]
    return [(regions[i], {e for e in remaining if e[0] in groups[i]})
            for i in order]


def reference_candidate_metrics(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    noise: Optional[NoiseModel] = None,
    use_range_detection: bool = True,
    prefix_tracker: Optional[ReferenceTracker] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> Optional[Tuple[int, int, Optional[float]]]:
    tracker = (prefix_tracker if prefix_tracker is not None
               else ReferenceTracker(coupling.n_qubits, noise))
    if ReferenceWalk(mapping, remaining).suffix(
            coupling, pattern, tracker.feed2, use_range_detection, stop):
        return None
    return tracker.finalize()


def reference_ata_suffix(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    gamma: float = 0.0,
    use_range_detection: bool = True,
) -> Tuple[Circuit, Mapping]:
    circuit = Circuit(coupling.n_qubits)
    walk = ReferenceWalk(mapping, remaining)
    walk.suffix(coupling, pattern, walk.sink(circuit, gamma),
                use_range_detection)
    return circuit, walk.mapping()


def reference_greedy_completion(
    coupling: CouplingGraph,
    mapping: Mapping,
    residual: Iterable[Tuple[int, int]],
    gamma: float = 0.0,
) -> Tuple[Circuit, Mapping]:
    """Route ``sorted(residual)`` from ``mapping`` onto a fresh circuit."""
    circuit = Circuit(coupling.n_qubits)
    walk = ReferenceWalk(mapping, residual)
    walk.complete(coupling, sorted(residual), walk.sink(circuit, gamma))
    return circuit, walk.mapping()


def reference_paulihedral(coupling: CouplingGraph, problem: ProblemGraph,
                          gamma: float = 0.0,
                          initial_mapping: Optional[Mapping] = None
                          ) -> Tuple[Circuit, Mapping]:
    if initial_mapping is None:
        initial_mapping = degree_placement(coupling, problem)
    circuit = Circuit(coupling.n_qubits)
    walk = ReferenceWalk(initial_mapping, problem.edges)
    sink = walk.sink(circuit, gamma)
    for layer in matching_layers(problem):
        placement = walk.mapping()
        adjacent = []
        distant = []
        for u, v in layer:
            if coupling.has_edge(placement.physical(u),
                                 placement.physical(v)):
                adjacent.append((u, v))
            else:
                distant.append((u, v))
        walk.complete(coupling, adjacent + distant, sink)
    return circuit, walk.mapping()
