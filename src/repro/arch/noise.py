"""Synthetic device calibration (Factor III, Section 5.3).

Real IBM backends expose per-edge CX error rates, per-qubit readout errors
and crosstalk between adjacent parallel CX gates.  We generate a seeded
synthetic calibration with the same statistics (log-normal CX errors with a
median near 7e-3, as on Falcon-generation devices) so that the noise-aware
parts of the compiler — minimum-weight-perfect-matching SWAP placement and
crosstalk-aware gate scheduling — exercise realistic variability.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Tuple

import numpy as np

from ..ir.circuit import Circuit
from ..ir.decompose import fusion_units, _FUSED
from ..ir.gates import CPHASE, CX, SWAP, canonical_edge
from .coupling import CouplingGraph


class NoiseModel:
    """Per-edge / per-qubit error rates for one device instance.

    Parameters
    ----------
    coupling:
        The device topology.
    seed:
        Seed for the synthetic calibration draw.
    cx_error_median / cx_error_sigma:
        Log-normal parameters of two-qubit gate error.
    sq_error:
        Uniform single-qubit gate error (small, near-constant on hardware).
    readout_error_median:
        Log-normal median of per-qubit readout error.
    """

    def __init__(
        self,
        coupling: CouplingGraph,
        seed: int = 7,
        cx_error_median: float = 7e-3,
        cx_error_sigma: float = 0.45,
        sq_error: float = 1e-4,
        readout_error_median: float = 2e-2,
    ) -> None:
        self.coupling = coupling
        rng = np.random.default_rng(seed)
        self.cx_error: Dict[Tuple[int, int], float] = {}
        for edge in sorted(coupling.edges):
            draw = float(rng.lognormal(math.log(cx_error_median),
                                       cx_error_sigma))
            self.cx_error[edge] = min(max(draw, 1e-3), 8e-2)
        self.sq_error = sq_error
        self.readout_error: Dict[int, float] = {}
        for q in range(coupling.n_qubits):
            draw = float(rng.lognormal(math.log(readout_error_median), 0.4))
            self.readout_error[q] = min(max(draw, 5e-3), 1.2e-1)
        self._crosstalk: FrozenSet = None  # computed lazily (O(E^2))

    # -- queries ------------------------------------------------------------------

    def edge_error(self, u: int, v: int) -> float:
        """CX error rate of the coupling between ``u`` and ``v``."""
        return self.cx_error[canonical_edge(u, v)]

    @property
    def crosstalk_pairs(self) -> FrozenSet:
        """Pairs of couplings that suffer crosstalk when driven in parallel.

        Two disjoint edges cross-talk when some endpoint of one is directly
        coupled to some endpoint of the other (nearest-neighbour parallel
        CXs, the dominant mechanism on fixed-frequency devices).
        """
        if self._crosstalk is None:
            self._crosstalk = frozenset(
                tuple(sorted(pair)) for pair in _crosstalk_pairs(self.coupling))
        return self._crosstalk

    def in_crosstalk(self, e1: Tuple[int, int], e2: Tuple[int, int]) -> bool:
        """Whether two couplings suffer crosstalk when driven in parallel."""
        key = tuple(sorted((canonical_edge(*e1), canonical_edge(*e2))))
        return key in self.crosstalk_pairs

    # -- circuit-level figures of merit ---------------------------------------

    def cx_per_edge(self, circuit: Circuit) -> Dict[Tuple[int, int], int]:
        """Decomposed CX counts per physical coupling (fusion-aware)."""
        counts: Dict[Tuple[int, int], int] = {}
        for unit_kind, ops in fusion_units(circuit):
            op = ops[0]
            if not op.is_two_qubit:
                continue
            edge = canonical_edge(*op.qubits)
            if unit_kind == _FUSED:
                n_cx = 3
            elif op.kind == CPHASE:
                n_cx = 2
            elif op.kind == SWAP:
                n_cx = 3
            elif op.kind == CX:
                n_cx = 1
            else:
                continue
            counts[edge] = counts.get(edge, 0) + n_cx
        return counts

    def esp(self, circuit: Circuit, include_readout: bool = False) -> float:
        """Estimated success probability: product of gate success rates.

        The log-domain terms are summed with ``math.fsum``, which is
        exactly rounded, so the result does not depend on the order in
        which edges first complete (a plain float sum would).
        """
        terms = [n_cx * math.log1p(-self.cx_error[edge])
                 for edge, n_cx in self.cx_per_edge(circuit).items()]
        n_single = sum(1 for op in circuit if len(op.qubits) == 1)
        terms.append(n_single * math.log1p(-self.sq_error))
        if include_readout:
            terms.extend(math.log1p(-self.readout_error[q])
                         for q in range(circuit.n_qubits))
        return math.exp(math.fsum(terms))


def _crosstalk_pairs(coupling: CouplingGraph):
    edges = sorted(coupling.edges)
    adjacent = {q: set(coupling.neighbors(q)) for q in range(coupling.n_qubits)}
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1:]:
            if set(e1) & set(e2):
                continue  # sharing a qubit is a scheduling conflict, not crosstalk
            if any(b in adjacent[a] for a in e1 for b in e2):
                yield (e1, e2)


def uniform_noise_model(coupling: CouplingGraph,
                        cx_error: float = 7e-3) -> NoiseModel:
    """A calibration with no variability (for ablations)."""
    model = NoiseModel(coupling)
    for edge in model.cx_error:
        model.cx_error[edge] = cx_error
    for q in model.readout_error:
        model.readout_error[q] = 2e-2
    return model
