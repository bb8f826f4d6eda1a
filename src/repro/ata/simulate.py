"""Metric simulation of ATA-suffix execution — the lazy-candidate core.

The hybrid pipeline scores up to ``max_predictions`` (default 24)
prefix+suffix candidates plus ``cc0`` but keeps exactly one;
materialising every candidate circuit (Op objects, validated appends,
then full decompose/depth passes) would dominate compile time at the
paper's 1024-qubit scale.  This module *simulates* a suffix execution in
plain Python: it replays :func:`repro.ata.executor.execute_pattern`
action by action — the same needed-pair test, the same elision of SWAPs
between finished occupants, the same first-come ``used`` reservation
inside a cycle — plus the same residual completion, and streams every
op it would emit into a :class:`MetricTracker` instead of building a
circuit.  The tracker reproduces the three selector inputs exactly:

* **depth** — the ASAP schedule length, replicating ``Circuit.depth``;
* **gate count** — fusion-aware CX count, replicating
  ``count_cx(unify=True)`` (adjacent CPHASE+SWAP on a pair = 3 CX);
* **esp** — when a noise model is present, the success-probability
  product of ``NoiseModel.esp``: an exactly rounded ``math.fsum`` over
  per-coupling CX tallies, so it does not depend on accumulation order.

Cycles come from the pattern's ``_compiled_plan`` where it has one: the
structured schedules repeat a handful of distinct cycles, so each is
converted to a tuple of ``(is_gate, u, v)`` actions once and replayed by
reference.  The replay is scalar: at 64 and 256 qubits a cycle emits a
median of 14-35 ops, too few for array dispatch to pay.  At 1024 qubits
cycles are wide enough that it would; docs/performance.md measures
that cost.

A simulation can also stop early.  Depth and fused CX count never
decrease as ops stream in, so a caller's ``stop`` predicate over the
running tracker may end a suffix as soon as its candidate provably
cannot win; ``stop`` is checked after every pattern cycle and every
completed residual pair, and :func:`candidate_metrics` then returns
``None``.

The selected candidate is materialised afterwards by re-running the real
executor, so compiled circuits stay byte-identical; the golden fixtures
pin that, and ``tests/ata/test_simulate.py`` pins metric equality.
"""

from __future__ import annotations

import math
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..arch.coupling import CouplingGraph
from ..arch.noise import NoiseModel
from ..ir.gates import CPHASE, CX, SWAP, Op, canonical_edges
from ..ir.mapping import Mapping
from .base import GATE, Action, AtaPattern
from .executor import detect_ranges

#: Compact op-kind codes for event streams.  The two kinds that can fuse,
#: CPHASE and SWAP, take the lowest codes: ``code <= K_SWAP`` tests it.
K_CPHASE = 0
K_SWAP = 1
K_CX = 2
K_OTHER = 3

_KIND_CODE = {CPHASE: K_CPHASE, SWAP: K_SWAP, CX: K_CX}

#: CX cost of a standalone (unfused) unit, by kind code.
_STANDALONE_CX = (2, 3, 1, 0)

#: One pattern action as the replay reads it: ``(is_gate, u, v)``.
CompiledCycle = Tuple[Tuple[bool, int, int], ...]


class MetricTracker:
    """Streaming replica of depth / fused CX count / esp.

    ``busy[q]`` is the ASAP layer count on qubit ``q``; ``depth`` is kept
    equal to their maximum as ops arrive.  Every op is
    charged its standalone CX cost when it arrives; a CPHASE or SWAP then
    stays on ``held_partner`` / ``held_kind`` until the next op on either
    of its qubits, and if that op is its complement on the same pair the
    two fuse into 3 CX together, so the second is charged the difference.
    With a noise model the tracker also keeps an integer CX tally per
    coupling, in :attr:`NoiseModel.cx_error` order, and the single-qubit
    op count; esp is an exactly rounded ``fsum`` of the same terms as
    ``NoiseModel.esp``.
    """

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
            # Shared by every fork of this tracker, never mutated.
            self.edge_index: Dict[Tuple[int, int], int] = {
                edge: index for index, edge in enumerate(noise.cx_error)}
            self.log_keep = [math.log1p(-error)
                             for error in noise.cx_error.values()]
            self.edge_cx = [0] * len(self.edge_index)

    def copy(self) -> "MetricTracker":
        clone = MetricTracker.__new__(MetricTracker)
        clone.__dict__.update(self.__dict__)
        clone.busy = self.busy[:]
        clone.held_partner = self.held_partner[:]
        clone.held_kind = self.held_kind[:]
        if self.edge_cx is not None:
            clone.edge_cx = self.edge_cx[:]
        return clone

    def feed2(self, code: int, u: int, v: int) -> None:
        """A two-qubit op on physical qubits ``(u, v)``."""
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
        """An arbitrary prefix op (greedy prefixes hold CPHASE/SWAP only)."""
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
        """(depth, cx_count, esp) — non-destructive, fork-safe."""
        depth = self.depth
        if self.noise is None or self.edge_cx is None:
            return depth, self.cx, None
        # The terms of ``NoiseModel.esp``; zero tallies add exact zeros.
        terms = [n * keep for n, keep in zip(self.edge_cx, self.log_keep)]
        terms.append(self.n_single * math.log1p(-self.noise.sq_error))
        return depth, self.cx, math.exp(math.fsum(terms))


# -- compiled pattern cycles -------------------------------------------------


def _compile_cycle(cycle: Iterable[Action]) -> CompiledCycle:
    return tuple((action == GATE, u, v) for action, u, v in cycle)


def compiled_cycles(pattern: AtaPattern) -> List[CompiledCycle]:
    """The pattern's schedule as ``(is_gate, u, v)`` tuples, cached on it.

    Memoised on the instance — combined with the restrict memo and the
    registry pattern cache, repeated candidate scoring against the same
    (sub-)pattern costs O(1) lookups.  Patterns exposing a
    ``_compiled_plan`` (a ``(distinct cycles, schedule)`` pair) convert
    each distinct cycle once and share it across the schedule by
    reference; everything else walks ``iter_cycles``.
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
        compiled = [_compile_cycle(cycle)
                    for cycle in pattern.iter_cycles()]
    pattern._compiled_cycles = compiled  # type: ignore[attr-defined]
    return compiled


# -- suffix simulation -------------------------------------------------------


class _SimState:
    """Mapping and pending-pair state for one suffix simulation.

    ``p2l[q]`` is the logical on physical ``q``, or -1 for a spare.  A
    pending pair ``(a, b)`` is stored as both ``a*stride+b`` and
    ``b*stride+a`` with ``stride = n_log + 1``, and ``degree`` has one
    extra slot that stays 0, so ``degree[-1]`` reads a spare as
    finished.  A spare never matches a key either: a product with a -1
    factor is negative, and ``a*stride - 1`` names the non-logical
    ``n_log`` as its partner.
    """

    def __init__(self, mapping: Mapping,
                 remaining: Set[Tuple[int, int]]) -> None:
        n_log = mapping.n_logical
        stride = n_log + 1
        self.stride = stride
        self.p2l = [-1] * mapping.n_physical
        for logical, physical in enumerate(mapping.log_to_phys):
            self.p2l[physical] = logical
        self.needed: Set[int] = set()
        self.degree = [0] * stride
        for a, b in remaining:  # det: ok — counts only
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


Feed = Callable[[int, int, int], None]


def _simulate_region(state: _SimState, pattern: AtaPattern,
                     edges: Set[Tuple[int, int]], feed2: Feed,
                     stop: Optional[Callable[[], bool]] = None
                     ) -> Optional[List[Tuple[int, int]]]:
    """Replay one region's pattern execution into ``feed2``.

    Mirrors :func:`repro.ata.executor.execute_pattern` decision for
    decision; returns the region's residual pairs in sorted order (the
    order ``greedy_completion`` consumes them), or ``None`` once
    ``stop`` fires after a cycle.
    """
    count = len(edges)
    if not count:
        return []
    p2l = state.p2l
    needed = state.needed
    degree = state.degree
    stride = state.stride
    # The executor's per-cycle ``used`` set: ``used[q] == stamp`` while an
    # action emitted in the current cycle holds ``q``.
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
                state.done(lu, lv)
                count -= 1
                feed2(K_CPHASE, u, v)
            else:
                # Moving two finished occupants is a no-op: elided.
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


def _simulate_completion(state: _SimState, coupling: CouplingGraph,
                         residual: Sequence[Tuple[int, int]], feed2: Feed,
                         stop: Optional[Callable[[], bool]] = None
                         ) -> bool:
    """Replica of :func:`repro.ata.executor.greedy_completion`; True once
    ``stop`` fires after a completed pair."""
    p2l = state.p2l
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
        state.done(lu, lv)
        if stop is not None and stop():
            return True
    return False


def simulate_suffix(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    tracker: MetricTracker,
    use_range_detection: bool = True,
    stop: Optional[Callable[[], bool]] = None,
) -> bool:
    """Stream the metrics of ``ata_suffix`` into ``tracker``.

    The exact event sequence of :func:`repro.ata.executor.ata_suffix` —
    range detection, per region pattern execution, then residual
    completion — without constructing the circuit.  Returns True when
    ``stop`` fired (on entry, after a cycle or after a residual pair)
    and the suffix was left unfinished.
    """
    pending = set(canonical_edges(remaining))
    if not pending:
        return False
    if stop is not None and stop():
        return True
    if use_range_detection:
        plan = detect_ranges(pattern, mapping, pending)
    else:
        plan = [(pattern, set(pending))]

    state = _SimState(mapping, pending)
    feed2 = tracker.feed2
    for region_pattern, edges in plan:
        residual = _simulate_region(state, region_pattern, edges, feed2,
                                    stop)
        if residual is None:
            return True
        if residual and _simulate_completion(state, coupling, residual,
                                              feed2, stop):
            return True
    return False


def candidate_metrics(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    noise: Optional[NoiseModel] = None,
    use_range_detection: bool = True,
    prefix_tracker: Optional[MetricTracker] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> Optional[Tuple[int, int, Optional[float]]]:
    """(depth, cx_count, esp) of prefix + ATA suffix, without a circuit.

    ``prefix_tracker`` carries the already-streamed greedy prefix (fork
    it per candidate); omitted, the suffix is scored from scratch — the
    pure-ATA candidate ``cc0``.  ``None`` when ``stop`` fired and the
    suffix was abandoned.
    """
    tracker = (prefix_tracker if prefix_tracker is not None
               else MetricTracker(coupling.n_qubits, noise))
    if simulate_suffix(coupling, pattern, mapping, remaining, tracker,
                       use_range_detection=use_range_detection, stop=stop):
        return None
    return tracker.finalize()
