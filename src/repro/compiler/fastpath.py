"""Scan and re-validation state for the greedy engine's SWAP insertion.

The greedy scheduler's two per-cycle scans — the hardware-compliant gate
scan and the SWAP-candidate scoring — visit every coupling, and at the
paper's 1024-qubit scale (Section 7) they dominate compile time.
:class:`GreedyFastPath` answers both with vectorized numpy gathers, and
re-validates the matched SWAPs one at a time in plain Python.

Authoritative state, mutated in place as the engine runs:

* the engine's one :class:`~repro.ir.mapping.Mapping` (``log_to_phys`` /
  ``phys_to_log``), shared with the caller: ``select_swaps`` applies each
  kept SWAP to it directly;
* ``pending`` — each logical qubit's pending partners, as a list, which
  :meth:`GreedyFastPath.mark_done` shrinks as pairs are emitted.

Derived numpy state, read only by the two scans:

* ``p2l`` / ``l2p`` — index arrays of the mapping, rebuilt from the
  ``Mapping`` by each scan, with ``-1`` / a sentinel index for spare
  physical qubits so every gather stays branch-free;
* ``rem`` — a boolean matrix of the still-pending logical pairs;
* ``partners`` — ``pending`` as a fixed-width matrix, row for row in the
  same order, padded with a sentinel logical qubit whose "position" is a
  virtual node at distance ``BIG`` from everything, so
  nearest-pending-partner minima never need masking;
* ``width`` — the longest pending row: the candidate scan reads only
  that many columns of ``partners``, since the rest hold the sentinel.

``rem``, ``partners`` and ``width`` are kept in step by
:meth:`mark_done`.  The sequential re-validation
(:meth:`GreedyFastPath.benefit`) reads only the authoritative lists and
the coupling's memoryview distance rows, so each re-scored SWAP costs
O(partners) reads and no numpy call.

Byte-identity is a hard contract (the golden fixtures pin it): the edge
list is captured **once** from ``coupling.edges`` — per-cycle results
are produced in exactly the order the Python loops iterated that same
frozenset — benefits are integer minima over the same partner sets as
the frozen scalar scorer in ``tests/compiler/reference_swaps.py``, and
the error-weight factors are precomputed with the *scalar* link-factor
function so no float operation is re-associated.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Optional, Set, Tuple

import numpy as np

from ..arch.coupling import CouplingGraph
from ..arch.noise import NoiseModel
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph
from .swap_insertion import SwapCandidate, _link_factor

#: Farther than any real device distance (device distances are int32).
BIG = np.int64(1) << 40


class GreedyFastPath:
    """Gate and SWAP scans plus SWAP re-validation for one engine run.

    ``mapping`` is held, not copied: it is the engine's mapping, and
    ``select_swaps`` applies the SWAPs it keeps to it.  Call
    :meth:`mark_done` whenever a pending pair is emitted.
    """

    def __init__(self, coupling: CouplingGraph, problem: ProblemGraph,
                 mapping: Mapping,
                 noise: Optional[NoiseModel] = None) -> None:
        n_log = mapping.n_logical
        n_phys = coupling.n_qubits
        self.mapping = mapping
        self.n_log = n_log
        self.n_phys = n_phys

        # Edge order is captured once; `coupling.edges` is a frozenset,
        # so per-cycle iteration in the scalar loops always replayed this
        # exact order.
        edge_list = list(coupling.edges)
        self.edge_list = edge_list
        self.edges_u = np.fromiter((e[0] for e in edge_list),
                                   dtype=np.int64, count=len(edge_list))
        self.edges_v = np.fromiter((e[1] for e in edge_list),
                                   dtype=np.int64, count=len(edge_list))
        # Scalar link factors (identical floats to the per-call path).
        self.link_factor = np.fromiter(
            (_link_factor(u, v, noise) for u, v in edge_list),
            dtype=np.float64, count=len(edge_list))

        dist = coupling.distance_matrix
        self.dist_rows = coupling.distance_rows
        # Distance matrix extended by a virtual node at distance BIG;
        # the sentinel logical qubit "lives" there, so min() over a
        # padded partner row never sees a spurious small distance.
        self.dist_ext = np.full((n_phys + 1, n_phys + 1), BIG,
                                dtype=np.int64)
        self.dist_ext[:n_phys, :n_phys] = dist

        # Index arrays of the mapping.  l2p has one extra slot: the
        # sentinel logical qubit n_log sits on the virtual node n_phys.
        self.p2l = np.full(n_phys, -1, dtype=np.int64)
        self.l2p = np.full(n_log + 1, n_phys, dtype=np.int64)
        self.logicals = np.arange(n_log, dtype=np.int64)

        # Pending pairs as per-logical partner lists, a symmetric boolean
        # matrix and a fixed-width partner matrix (row n_log is the
        # all-sentinel row that -1 physical qubits resolve to).
        self.rem = np.zeros((n_log, n_log), dtype=bool)
        pending: List[List[int]] = [[] for _ in range(n_log)]
        for a, b in problem.edges:
            self.rem[a, b] = True
            self.rem[b, a] = True
            pending[a].append(b)
            pending[b].append(a)
        self.pending = pending
        width = max(1, max((len(row) for row in pending), default=1))
        self.partners = np.full((n_log + 1, width), n_log, dtype=np.int64)
        for logical, row in enumerate(pending):
            self.partners[logical, :len(row)] = row
        # The live width: the longest pending row, at least 1.  Columns
        # past it hold only the sentinel, so the candidate scan slices
        # them off.  ``_rows_of_length[k]`` counts the rows of length k,
        # so mark_done lowers the width without a per-cycle max.
        self.width = width
        self._rows_of_length = [0] * (width + 1)
        for row in pending:
            self._rows_of_length[len(row)] += 1

    # -- state updates ------------------------------------------------------

    def mark_done(self, pair: Tuple[int, int]) -> None:
        """A pending pair was emitted: drop it from the partner lists and
        the two matrices that mirror them."""
        a, b = pair
        self.rem[a, b] = False
        self.rem[b, a] = False
        partners = self.partners
        for q, partner in ((a, b), (b, a)):
            row = self.pending[q]
            index = row.index(partner)
            last = row.pop()
            count = len(row)
            if index < count:
                row[index] = last
                partners[q, index] = last
            partners[q, count] = self.n_log
            self._rows_of_length[count + 1] -= 1
            self._rows_of_length[count] += 1
        while self.width > 1 and not self._rows_of_length[self.width]:
            self.width -= 1

    # -- sequential re-validation -------------------------------------------

    def benefit(self, u: int, v: int) -> int:
        """Drop in nearest-pending-partner distance from swapping (u, v).

        Summed over both occupants; a spare qubit, or one with no pending
        partner, contributes nothing.
        """
        log_to_phys = self.mapping.log_to_phys
        phys_to_log = self.mapping.phys_to_log
        rows = self.dist_rows
        total = 0
        for here, there in ((u, v), (v, u)):
            logical = phys_to_log[here]
            if logical is None:
                continue
            partners = self.pending[logical]
            if not partners:
                continue
            # itemgetter returns a tuple only for two or more keys, so
            # the first partner is read twice; no minimum changes.
            positions = itemgetter(partners[0], *partners)(log_to_phys)
            distances = itemgetter(*positions)
            total += min(distances(rows[here])) - min(distances(rows[there]))
        return total

    # -- per-cycle scans ----------------------------------------------------

    def _index_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``p2l`` and ``l2p``, rebuilt from the mapping's lists."""
        l2p = self.l2p
        l2p[:self.n_log] = self.mapping.log_to_phys
        p2l = self.p2l
        p2l.fill(-1)
        p2l[l2p[:self.n_log]] = self.logicals
        return p2l, l2p

    def executable(self) -> List[Tuple[int, int, Tuple[int, int]]]:
        """Hardware-compliant pending gates, in captured edge order."""
        p2l, _ = self._index_arrays()
        lu = p2l[self.edges_u]
        lv = p2l[self.edges_v]
        valid = (lu >= 0) & (lv >= 0)
        hits = np.nonzero(valid)[0]
        if hits.size:
            hits = hits[self.rem[lu[hits], lv[hits]]]
        out = []
        edge_list = self.edge_list
        for index, a, b in zip(hits.tolist(), lu[hits].tolist(),
                               lv[hits].tolist()):
            u, v = edge_list[index]
            out.append((u, v, (a, b) if a < b else (b, a)))
        return out

    def swap_candidates(self, busy: Set[int]) -> List[SwapCandidate]:
        """Positive-benefit SWAPs on idle links, in captured edge order.

        For each idle edge ``(u, v)`` the benefit is the drop in
        nearest-pending-partner distance for both occupants — integer-exact
        with :meth:`benefit` — and the weight is that integer times the
        precomputed link factor.
        """
        busy_mask = np.zeros(self.n_phys, dtype=bool)
        if busy:
            busy_mask[list(busy)] = True
        idle = ~(busy_mask[self.edges_u] | busy_mask[self.edges_v])
        indices = np.nonzero(idle)[0]
        if not indices.size:
            return []
        p2l, l2p = self._index_arrays()
        us = self.edges_u[indices]
        vs = self.edges_v[indices]
        # -1 (spare qubit) resolves to the sentinel row: all partners
        # are the sentinel logical at distance BIG, contributing
        # BIG - BIG = 0 exactly as the scalar loop's `continue` does.
        lu = np.where(p2l[us] >= 0, p2l[us], self.n_log)
        lv = np.where(p2l[vs] >= 0, p2l[vs], self.n_log)
        partners = self.partners[:, :self.width]
        pos_u = l2p[partners[lu]]
        pos_v = l2p[partners[lv]]
        benefit = (
            self.dist_ext[us[:, None], pos_u].min(axis=1)
            - self.dist_ext[vs[:, None], pos_u].min(axis=1)
            + self.dist_ext[vs[:, None], pos_v].min(axis=1)
            - self.dist_ext[us[:, None], pos_v].min(axis=1))
        positive = np.nonzero(benefit > 0)[0]
        if not positive.size:
            return []
        weights = (benefit[positive].astype(np.float64)
                   * self.link_factor[indices[positive]])
        return list(zip(weights.tolist(), us[positive].tolist(),
                        vs[positive].tolist()))
