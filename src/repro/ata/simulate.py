"""Metric simulation of ATA-suffix execution — the lazy-candidate core.

The hybrid pipeline scores ~24 prefix+suffix candidates but keeps exactly
one; materialising every candidate circuit (Op objects, validated
appends, then full decompose/depth passes) dominates compile time at the
paper's 1024-qubit scale.  This module *simulates* a suffix execution:
it walks the same pattern cycles with the same skip/elide decisions as
:func:`repro.ata.executor.execute_pattern` (plus the same residual
completion), but streams ``(kind, u, v)`` events into a metric tracker
instead of building a circuit.  The tracker reproduces the three
selector inputs exactly:

* **depth** — the ASAP schedule length, replicating ``Circuit.depth``;
* **gate count** — fusion-aware CX count, replicating
  ``count_cx(unify=True)`` (adjacent CPHASE+SWAP on a pair = 3 CX);
* **esp** — when a noise model is present, the success-probability
  product of ``NoiseModel.esp``: an exactly rounded ``math.fsum`` over
  per-edge CX tallies, so it does not depend on accumulation order.

One tracker, :class:`MetricTracker`, holds this state in flat arrays and
accepts a whole cycle's emitted gates as a numpy batch.  Every total is
an integer sum or an order-free ``fsum``, so batching is exact, not
approximate.  For a cycle whose actions touch pairwise-disjoint physical
qubits, every executor decision depends only on start-of-cycle state
(distinct positions hold distinct logicals, so no gate can affect
another's needed/degree reads).  Non-disjoint cycles (the heavy-hex
interleave shares an anchor qubit) add the executor's first-come qubit
reservation over the surviving candidates before the batch is fed.

The selected candidate is materialised afterwards by re-running the real
executor, so compiled circuits stay byte-identical; the golden fixtures
pin that, and ``tests/ata/test_simulate.py`` pins metric equality.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from ..arch.coupling import CouplingGraph
from ..arch.noise import NoiseModel
from ..ir.gates import CPHASE, CX, SWAP, Op, canonical_edges
from ..ir.mapping import Mapping
from .base import GATE, AtaPattern

#: Compact op-kind codes for event streams.
K_CPHASE = 0
K_SWAP = 1
K_CX = 2
K_OTHER = 3

_KIND_CODE = {CPHASE: K_CPHASE, SWAP: K_SWAP, CX: K_CX}

#: CX cost of a standalone (unfused) unit, by kind code.
_STANDALONE_CX = (2, 3, 1, 0)


def _code_of(kind: str) -> int:
    return _KIND_CODE.get(kind, K_OTHER)


class MetricTracker:
    """Array-state replica of depth / fused CX count / esp.

    Fusion state lives in ``held_partner`` / ``held_kind`` arrays so a
    whole cycle updates in a handful of numpy operations.  With a noise
    model the tracker also keeps an integer CX tally per coupling (in
    :attr:`NoiseModel.cx_error` order) and the single-qubit op count;
    every total is an order-insensitive integer sum and esp is an
    exactly rounded ``fsum`` of the same terms as ``NoiseModel.esp``,
    so batching is exact.
    """

    def __init__(self, n_qubits: int,
                 noise: Optional[NoiseModel] = None) -> None:
        self.n_qubits = n_qubits
        self.noise = noise
        self.busy = np.zeros(n_qubits, dtype=np.int64)
        self.depth = 0
        self.cx = 0
        self.held_partner = np.full(n_qubits, -1, dtype=np.int64)
        self.held_kind = np.zeros(n_qubits, dtype=np.int8)
        self.edge_cx: Optional[np.ndarray] = None
        self.n_single = 0
        if noise is not None:
            self.edge_cx = np.zeros(len(noise.cx_error), dtype=np.int64)
            self.log_keep = np.array(
                [math.log1p(-error) for error in noise.cx_error.values()])

    def copy(self) -> "MetricTracker":
        clone = MetricTracker.__new__(MetricTracker)
        clone.__dict__.update(self.__dict__)
        clone.busy = self.busy.copy()
        clone.held_partner = self.held_partner.copy()
        clone.held_kind = self.held_kind.copy()
        if self.edge_cx is not None:
            clone.edge_cx = self.edge_cx.copy()
        return clone

    def _tally(self, u: int, v: int, n_cx: int) -> None:
        if self.edge_cx is not None:
            lo, hi = (u, v) if u < v else (v, u)
            self.edge_cx[self.noise.edge_ids(lo, hi)] += n_cx

    def _flush(self, q: int) -> None:
        """Emit the pending pair held on qubit ``q``, if any, unfused."""
        held = self.held_partner
        p = held[q]
        if p >= 0:
            n_cx = _STANDALONE_CX[self.held_kind[q]]
            self.cx += n_cx
            self._tally(q, p, n_cx)
            held[q] = -1
            held[p] = -1

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
        if code == K_CPHASE or code == K_SWAP:
            if held[u] == v and self.held_kind[u] != code:
                self.cx += 3
                self._tally(u, v, 3)
                held[u] = -1
                held[v] = -1
                return
            self._flush(u)
            self._flush(v)
            held[u] = v
            held[v] = u
            self.held_kind[u] = code
            self.held_kind[v] = code
        else:
            self._flush(u)
            self._flush(v)
            self.cx += _STANDALONE_CX[code]
            self._tally(u, v, _STANDALONE_CX[code])

    def feed_op(self, op: Op) -> None:
        """An arbitrary prefix op (greedy prefixes hold CPHASE/SWAP only)."""
        qubits = op.qubits
        if len(qubits) == 2:
            self.feed2(_code_of(op.kind), qubits[0], qubits[1])
            return
        end = int(max(self.busy[q] for q in qubits)) + 1
        for q in qubits:
            self.busy[q] = end
            self._flush(q)
        if end > self.depth:
            self.depth = end
        if len(qubits) == 1:
            self.n_single += 1

    def feed_batch(self, codes: np.ndarray, us: np.ndarray,
                   vs: np.ndarray) -> None:
        """One cycle's emitted two-qubit ops (pairwise qubit-disjoint)."""
        if not us.size:
            return
        busy = self.busy
        starts = np.maximum(busy[us], busy[vs]) + 1
        busy[us] = starts
        busy[vs] = starts
        top = int(starts.max())
        if top > self.depth:
            self.depth = top

        held = self.held_partner
        edge_cx = self.edge_cx
        fuse = (held[us] == vs) & (self.held_kind[us] != codes)
        n_fused = int(np.count_nonzero(fuse))
        if n_fused:
            self.cx += 3 * n_fused
            fu = us[fuse]
            fv = vs[fuse]
            held[fu] = -1
            held[fv] = -1
            if edge_cx is not None:
                # Disjoint ops name distinct edges, so ``+=`` is safe.
                edge_cx[self.noise.edge_ids(np.minimum(fu, fv),
                                            np.maximum(fu, fv))] += 3
        rest = ~fuse
        ru = us[rest]
        rv = vs[rest]
        # Flush every pending pair touching a non-fused op's qubits —
        # each such pair exactly once, even when both its endpoints are
        # touched by (different) ops of this cycle.
        qs = np.concatenate((ru, rv))
        ps = held[qs]
        hit = ps >= 0
        if hit.any():
            a = qs[hit]
            b = ps[hit]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            keys = np.unique(lo * np.int64(self.n_qubits) + hi)
            flo = keys // self.n_qubits
            fhi = keys % self.n_qubits
            n_cx = np.take(_STANDALONE_CX_ARR, self.held_kind[flo])
            self.cx += int(n_cx.sum())
            if edge_cx is not None:
                edge_cx[self.noise.edge_ids(flo, fhi)] += n_cx
            held[flo] = -1
            held[fhi] = -1
        held[ru] = rv
        held[rv] = ru
        self.held_kind[ru] = codes[rest]
        self.held_kind[rv] = codes[rest]

    def finalize(self) -> Tuple[int, int, Optional[float]]:
        """(depth, cx_count, esp) — non-destructive, fork-safe."""
        held = self.held_partner
        mine = np.nonzero(held > np.arange(self.n_qubits))[0]
        n_cx = np.take(_STANDALONE_CX_ARR, self.held_kind[mine])
        cx = self.cx + int(n_cx.sum())
        if self.noise is None:
            return self.depth, cx, None
        edge_cx = self.edge_cx.copy()
        edge_cx[self.noise.edge_ids(mine, held[mine])] += n_cx
        # The terms of ``NoiseModel.esp``; zero tallies add exact zeros.
        terms = (edge_cx * self.log_keep).tolist()
        terms.append(self.n_single * math.log1p(-self.noise.sq_error))
        return self.depth, cx, math.exp(math.fsum(terms))


_STANDALONE_CX_ARR = np.array(_STANDALONE_CX, dtype=np.int64)


# -- compiled pattern cycles -------------------------------------------------


def _compile_cycle(cycle) -> Tuple:
    """One cycle's ``(codes, us, vs, disjoint)`` arrays.

    ``disjoint`` marks cycles whose actions touch pairwise-distinct
    qubits (every structural cycle except the heavy-hex interleaves).
    Disjoint cycles batch without conflict resolution; for the rest the
    simulator still vectorises the candidate tests against pre-cycle
    state — exact because any mid-cycle state change comes from an
    *emitted* action, which marks its positions used, so a later action
    that could observe the change is blocked by the executor's ``used``
    set regardless — and resolves the (few) surviving candidates with an
    in-order sweep.
    """
    n = len(cycle)
    codes = np.fromiter(
        (K_CPHASE if a == GATE else K_SWAP for a, _, _ in cycle),
        dtype=np.int8, count=n)
    us = np.fromiter((u for _, u, _ in cycle), dtype=np.int64, count=n)
    vs = np.fromiter((v for _, _, v in cycle), dtype=np.int64, count=n)
    seen: Set[int] = set()
    disjoint = True
    for _, u, v in cycle:
        if u in seen or v in seen:
            disjoint = False
            break
        seen.add(u)
        seen.add(v)
    return (codes, us, vs, disjoint)


def compiled_cycles(pattern: AtaPattern) -> List[Tuple]:
    """Per-cycle ``(codes, us, vs, bounds)`` arrays, cached on the pattern.

    Memoised on the instance — combined with the restrict memo and the
    registry pattern cache, repeated candidate scoring against the same
    (sub-)pattern costs O(1) lookups.  Patterns exposing a
    ``_compiled_plan`` (a ``(distinct cycles, schedule)`` pair — the
    structured schedules repeat a handful of distinct cycles) compile
    each distinct cycle once and replay the arrays by reference;
    everything else falls back to walking ``iter_cycles``.
    """
    compiled = getattr(pattern, "_compiled_cycles", None)
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
    """Flat mapping / pending-edge state for one suffix simulation."""

    def __init__(self, mapping: Mapping,
                 remaining: Set[Tuple[int, int]]) -> None:
        n_log = mapping.n_logical
        n_phys = mapping.n_physical
        self.n_log = n_log
        self.p2l = np.full(n_phys, -1, dtype=np.int64)
        self.l2p = np.full(n_log, -1, dtype=np.int64)
        for logical, physical in enumerate(mapping.log_to_phys):
            self.p2l[physical] = logical
            self.l2p[logical] = physical
        self.needed = np.zeros((n_log, n_log), dtype=bool)
        self.degree = np.zeros(n_log, dtype=np.int64)
        for a, b in remaining:
            self.needed[a, b] = True
            self.needed[b, a] = True
            self.degree[a] += 1
            self.degree[b] += 1


def _simulate_region(state: _SimState, pattern: AtaPattern,
                     edges: Set[Tuple[int, int]], tracker: MetricTracker
                     ) -> List[Tuple[int, int]]:
    """Replay one region's pattern execution into the tracker.

    Mirrors :func:`repro.ata.executor.execute_pattern` decision for
    decision; returns the region's residual pairs in sorted order (the
    order ``greedy_completion`` consumes them).
    """
    count = len(edges)
    if not count:
        return []
    p2l = state.p2l
    needed = state.needed
    degree = state.degree

    for codes, us, vs, disjoint in compiled_cycles(pattern):
        if not count:
            break
        lu = p2l[us]
        lv = p2l[vs]
        real = (lu >= 0) & (lv >= 0)
        gate_emit = real & (codes == K_CPHASE)
        if gate_emit.any():
            gate_emit[gate_emit] = needed[lu[gate_emit], lv[gate_emit]]
        swap_emit = codes == K_SWAP
        if swap_emit.any():
            au = (lu >= 0) & swap_emit
            av = (lv >= 0) & swap_emit
            active = np.zeros(len(codes), dtype=bool)
            active[au] = degree[lu[au]] > 0
            active[av] |= degree[lv[av]] > 0
            swap_emit &= active
        if not disjoint:
            # Candidate flags above are exact against pre-cycle state;
            # all that's left of the executor's sequential semantics is
            # first-come qubit reservation.  Resolve it over the
            # surviving candidates only (typically a handful for the
            # heavy-hex interleaves).
            cand = np.nonzero(gate_emit | swap_emit)[0]
            if len(cand) > 1:
                cu = us[cand].tolist()
                cv = vs[cand].tolist()
                taken: Set[int] = set()
                for pos, u, v in zip(cand.tolist(), cu, cv):
                    if u in taken or v in taken:
                        gate_emit[pos] = False
                        swap_emit[pos] = False
                    else:
                        taken.add(u)
                        taken.add(v)
        emit = gate_emit | swap_emit
        if not emit.any():
            continue
        # Commit gates: clear needed pairs, drop degrees.
        if gate_emit.any():
            glu = lu[gate_emit]
            glv = lv[gate_emit]
            needed[glu, glv] = False
            needed[glv, glu] = False
            degree[glu] -= 1
            degree[glv] -= 1
            count -= int(np.count_nonzero(gate_emit))
        # Commit swaps: exchange occupants.
        if swap_emit.any():
            su = us[swap_emit]
            sv = vs[swap_emit]
            slu = p2l[su].copy()
            slv = p2l[sv].copy()
            p2l[su] = slv
            p2l[sv] = slu
            moved = slu >= 0
            state.l2p[slu[moved]] = sv[moved]
            moved = slv >= 0
            state.l2p[slv[moved]] = su[moved]
        tracker.feed_batch(codes[emit], us[emit], vs[emit])
    if not count:
        return []
    return sorted(e for e in edges if state.needed[e[0], e[1]])


def _simulate_completion(state: _SimState, coupling: CouplingGraph,
                         residual: List[Tuple[int, int]],
                         tracker: MetricTracker) -> None:
    """Replica of :func:`repro.ata.executor.greedy_completion`."""
    for lu, lv in residual:
        pu = int(state.l2p[lu])
        pv = int(state.l2p[lv])
        path = coupling.shortest_path(pu, pv)
        for k in range(len(path) - 1, 1, -1):
            a, b = path[k], path[k - 1]
            tracker.feed2(K_SWAP, a, b)
            la = int(state.p2l[a])
            lb = int(state.p2l[b])
            state.p2l[a] = lb
            state.p2l[b] = la
            if la >= 0:
                state.l2p[la] = b
            if lb >= 0:
                state.l2p[lb] = a
        tracker.feed2(K_CPHASE, path[0], path[1])
        state.needed[lu, lv] = False
        state.needed[lv, lu] = False
        state.degree[lu] -= 1
        state.degree[lv] -= 1


def simulate_suffix(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    tracker: MetricTracker,
    use_range_detection: bool = True,
) -> None:
    """Stream the metrics of ``ata_suffix`` into ``tracker``.

    The exact event sequence of
    :func:`repro.compiler.prediction.ata_suffix` — range detection, per
    region pattern execution, then residual completion — without
    constructing the circuit.
    """
    from ..compiler.prediction import detect_ranges

    remaining = set(canonical_edges(remaining))
    if not remaining:
        return
    if use_range_detection:
        plan = detect_ranges(pattern, mapping, remaining)
    else:
        plan = [(pattern, set(remaining))]

    state = _SimState(mapping, remaining)
    for region_pattern, edges in plan:
        residual = _simulate_region(state, region_pattern, edges, tracker)
        if residual:
            _simulate_completion(state, coupling, residual, tracker)


def candidate_metrics(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    noise: Optional[NoiseModel] = None,
    use_range_detection: bool = True,
    prefix_tracker: Optional[MetricTracker] = None,
) -> Tuple[int, int, Optional[float]]:
    """(depth, cx_count, esp) of prefix + ATA suffix, without a circuit.

    ``prefix_tracker`` carries the already-streamed greedy prefix (fork
    it per candidate); omitted, the suffix is scored from scratch — the
    pure-ATA candidate ``cc0``.
    """
    tracker = (prefix_tracker if prefix_tracker is not None
               else MetricTracker(coupling.n_qubits, noise))
    simulate_suffix(coupling, pattern, mapping, remaining, tracker,
                    use_range_detection=use_range_detection)
    return tracker.finalize()
