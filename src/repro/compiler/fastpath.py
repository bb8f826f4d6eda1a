"""Numpy state mirrors for the greedy engine's per-cycle scans.

The greedy scheduler's two inner loops — the hardware-compliant gate scan
and the SWAP-candidate scoring — are O(edges) Python loops with per-edge
set membership and per-qubit numpy gathers.  At the paper's 1024-qubit
scale (Section 7) they dominate compile time.  :class:`GreedyFastPath`
maintains flat numpy mirrors of the mutable compilation state and
answers both scans with vectorized gathers instead:

* ``p2l`` / ``l2p`` — the mapping, with ``-1`` / a sentinel index for
  spare physical qubits so every gather stays branch-free;
* ``rem`` — a boolean matrix of the still-pending logical pairs;
* a fixed-width partner matrix padded with a sentinel logical qubit
  whose "position" is a virtual node at distance ``BIG`` from
  everything, so nearest-pending-partner minima never need masking.

Byte-identity is a hard contract (the golden fixtures pin it): the edge
list is captured **once** from ``coupling.edges`` — per-cycle results
are produced in exactly the order the Python loops iterated that same
frozenset — benefits are computed in integer arithmetic identical to
the scalar :func:`repro.compiler.swap_insertion.swap_benefit`, and the
error-weight factors are precomputed with the *scalar* link-factor
function so no float operation is re-associated.
"""

from __future__ import annotations

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
    """Vectorized executable-gate and SWAP-benefit scans for one run.

    The instance must be kept in lockstep with the engine's mutable
    state: call :meth:`mark_done` whenever a pending pair is emitted and
    :meth:`swap` whenever the mapping changes.
    """

    def __init__(self, coupling: CouplingGraph, problem: ProblemGraph,
                 mapping: Mapping,
                 noise: Optional[NoiseModel] = None) -> None:
        n_log = mapping.n_logical
        n_phys = coupling.n_qubits
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

        # Distance matrix extended by a virtual node at distance BIG;
        # the sentinel logical qubit "lives" there, so min() over a
        # padded partner row never sees a spurious small distance.
        dist = coupling.distance_matrix
        self.dist_ext = np.full((n_phys + 1, n_phys + 1), BIG,
                                dtype=np.int64)
        self.dist_ext[:n_phys, :n_phys] = dist

        # Mapping mirrors.  l2p has one extra slot: the sentinel logical
        # qubit n_log sits on the virtual physical node n_phys.
        self.p2l = np.full(n_phys, -1, dtype=np.int64)
        self.l2p = np.full(n_log + 1, n_phys, dtype=np.int64)
        for logical, physical in enumerate(mapping.log_to_phys):
            self.p2l[physical] = logical
            self.l2p[logical] = physical

        # Pending pairs as a symmetric boolean matrix plus a fixed-width
        # partner matrix (row n_log is the all-sentinel row that -1
        # physical qubits resolve to).
        self.rem = np.zeros((n_log, n_log), dtype=bool)
        adjacency: List[List[int]] = [[] for _ in range(n_log)]
        for a, b in problem.edges:
            self.rem[a, b] = True
            self.rem[b, a] = True
            adjacency[a].append(b)
            adjacency[b].append(a)
        width = max(1, max((len(row) for row in adjacency), default=1))
        self.partners = np.full((n_log + 1, width), n_log, dtype=np.int64)
        self.partner_count = np.zeros(n_log + 1, dtype=np.int64)
        for logical, row in enumerate(adjacency):
            self.partners[logical, :len(row)] = row
            self.partner_count[logical] = len(row)

    # -- state updates ------------------------------------------------------

    def mark_done(self, pair: Tuple[int, int]) -> None:
        """A pending pair was emitted: clear it from both mirrors."""
        a, b = pair
        self.rem[a, b] = False
        self.rem[b, a] = False
        for q, partner in ((a, b), (b, a)):
            row = self.partners[q]
            count = int(self.partner_count[q])
            index = int(np.nonzero(row[:count] == partner)[0][0])
            count -= 1
            row[index] = row[count]
            row[count] = self.n_log
            self.partner_count[q] = count

    def swap(self, u: int, v: int) -> None:
        """Mirror of ``Mapping.swap_physical``."""
        lu = int(self.p2l[u])
        lv = int(self.p2l[v])
        self.p2l[u] = lv
        self.p2l[v] = lu
        if lu >= 0:
            self.l2p[lu] = v
        if lv >= 0:
            self.l2p[lv] = u

    # -- per-cycle scans ----------------------------------------------------

    def executable(self) -> List[Tuple[int, int, Tuple[int, int]]]:
        """Hardware-compliant pending gates, in captured edge order."""
        lu = self.p2l[self.edges_u]
        lv = self.p2l[self.edges_v]
        valid = (lu >= 0) & (lv >= 0)
        hits = np.nonzero(valid)[0]
        if hits.size:
            hits = hits[self.rem[lu[hits], lv[hits]]]
        out = []
        edge_list = self.edge_list
        for index in hits:
            u, v = edge_list[index]
            a = int(lu[index])
            b = int(lv[index])
            out.append((u, v, (a, b) if a < b else (b, a)))
        return out

    def swap_candidates(self, busy: Set[int]) -> List[SwapCandidate]:
        """Positive-benefit SWAPs on idle links, in captured edge order.

        For each idle edge ``(u, v)`` the benefit is the drop in
        nearest-pending-partner distance for both occupants — integer-exact
        with :func:`repro.compiler.swap_insertion.swap_benefit` — and the
        weight is that integer times the precomputed link factor.
        """
        busy_mask = np.zeros(self.n_phys, dtype=bool)
        if busy:
            busy_mask[list(busy)] = True
        idle = ~(busy_mask[self.edges_u] | busy_mask[self.edges_v])
        indices = np.nonzero(idle)[0]
        if not indices.size:
            return []
        us = self.edges_u[indices]
        vs = self.edges_v[indices]
        # -1 (spare qubit) resolves to the sentinel row: all partners
        # are the sentinel logical at distance BIG, contributing
        # BIG - BIG = 0 exactly as the scalar loop's `continue` does.
        lu = np.where(self.p2l[us] >= 0, self.p2l[us], self.n_log)
        lv = np.where(self.p2l[vs] >= 0, self.p2l[vs], self.n_log)
        pos_u = self.l2p[self.partners[lu]]
        pos_v = self.l2p[self.partners[lv]]
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
        return [(float(weight), int(u), int(v))
                for weight, u, v in zip(weights, us[positive],
                                        vs[positive])]
