"""Layered programs: the compiled artifact for p-layer QAOA / Trotterization.

A compiled *circuit* implements one permuted cost layer; a compiled
*program* is the full p-layer schedule a QAOA run (or a Trotterized
Hamiltonian simulation) actually executes.  Each :class:`ProgramLayer`
carries a role — ``cost``, ``reversed-cost`` or ``mixer`` — its per-layer
parameter (gamma for cost layers, beta for mixers) and its mapping
provenance: the logical-to-physical layout the layer starts from and the
layout its SWAPs leave behind.

The assembly optimization (see :mod:`repro.pipeline.assembly`) exploits
the fact that a compiled cost layer run *in reverse op order* implements
the same logical gate set while applying the **inverse** qubit
permutation: alternating the layer with its reversal makes the net
permutation cancel every two cost layers, so no inter-layer remapping
SWAPs are ever paid and the measurement layout after an even number of
cost layers is the initial placement itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .circuit import Circuit
from .gates import SWAP, Op
from .mapping import Mapping

#: A layer replaying the compiled cost block in program order.
ROLE_COST = "cost"
#: A layer replaying the compiled cost block in *reversed* op order,
#: undoing the block's net qubit permutation.
ROLE_REVERSED_COST = "reversed-cost"
#: A single-qubit mixer wall (RX on every mapped qubit).
ROLE_MIXER = "mixer"

#: Roles that implement the problem's two-qubit interactions.
COST_ROLES = frozenset({ROLE_COST, ROLE_REVERSED_COST})
#: Every valid layer role.
LAYER_ROLES = frozenset({ROLE_COST, ROLE_REVERSED_COST, ROLE_MIXER})


@dataclass(frozen=True)
class ProgramLayer:
    """One layer of a compiled program plus its mapping provenance."""

    role: str
    circuit: Circuit
    #: gamma_k for cost layers, beta_k for mixer layers.
    param: Optional[float]
    #: Logical-to-physical layout the layer starts from.
    input_log_to_phys: Tuple[int, ...]
    #: Layout after the layer's SWAPs (equals the input for mixers).
    output_log_to_phys: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.role not in LAYER_ROLES:
            raise ValueError(
                f"unknown layer role {self.role!r}; expected one of "
                f"{sorted(LAYER_ROLES)}")
        if len(self.input_log_to_phys) != len(self.output_log_to_phys):
            raise ValueError(
                "layer input/output mappings cover different logical "
                "qubit counts")

    @property
    def is_cost(self) -> bool:
        return self.role in COST_ROLES

    def input_mapping(self, n_physical: int) -> Mapping:
        """The layer's starting layout as a :class:`Mapping`."""
        return Mapping(list(self.input_log_to_phys), n_physical)


class Program:
    """An ordered list of layers over one physical register.

    Layers must be mapping-continuous: each layer's input layout is the
    previous layer's output layout, and the first layer starts from
    ``initial_mapping``.  (The lint rule RL030 re-checks this on
    deserialized documents; construction enforces it for programs built
    in-process.)
    """

    def __init__(self, n_qubits: int, layers: Sequence[ProgramLayer],
                 initial_mapping: Mapping, name: str = "") -> None:
        if n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        if not layers:
            raise ValueError("a program needs at least one layer")
        if initial_mapping.n_physical != n_qubits:
            raise ValueError(
                f"initial mapping covers {initial_mapping.n_physical} "
                f"physical qubits but the program has {n_qubits}")
        current = tuple(initial_mapping.log_to_phys)
        for index, layer in enumerate(layers):
            if layer.circuit.n_qubits != n_qubits:
                raise ValueError(
                    f"layer {index} is {layer.circuit.n_qubits} qubits "
                    f"wide but the program has {n_qubits}")
            if layer.input_log_to_phys != current:
                raise ValueError(
                    f"layer {index} input mapping "
                    f"{list(layer.input_log_to_phys)} disagrees with the "
                    f"previous layer's output {list(current)}")
            current = layer.output_log_to_phys
        self.n_qubits = n_qubits
        self.layers: List[ProgramLayer] = list(layers)
        self.initial_mapping = initial_mapping.copy()
        self.name = name

    @classmethod
    def from_layers_unchecked(cls, n_qubits: int,
                              layers: Sequence[ProgramLayer],
                              initial_mapping: Mapping,
                              name: str = "") -> "Program":
        """Build a program without the continuity validation — the
        tolerant path for possibly-tampered serialized documents, which
        the lint rules (RL030/RL031) then diagnose instead of a load
        failure.  The :class:`Circuit` analogue is
        ``Circuit.from_ops_unchecked``."""
        program = cls.__new__(cls)
        program.n_qubits = n_qubits
        program.layers = list(layers)
        program.initial_mapping = initial_mapping.copy()
        program.name = name
        return program

    # -- structure ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[ProgramLayer]:
        return iter(self.layers)

    @property
    def p(self) -> int:
        """The QAOA depth: number of cost-role layers."""
        return sum(1 for layer in self.layers if layer.is_cost)

    def cost_layers(self) -> List[ProgramLayer]:
        return [layer for layer in self.layers if layer.is_cost]

    def mixer_layers(self) -> List[ProgramLayer]:
        return [layer for layer in self.layers
                if layer.role == ROLE_MIXER]

    @property
    def mixer(self) -> str:
        """``"rx"`` when the program interleaves mixer walls, else ``"none"``."""
        return "rx" if self.mixer_layers() else "none"

    def gammas(self) -> List[Optional[float]]:
        """Per-cost-layer angles, in layer order."""
        return [layer.param for layer in self.cost_layers()]

    def betas(self) -> List[Optional[float]]:
        """Per-mixer-layer angles, in layer order."""
        return [layer.param for layer in self.mixer_layers()]

    # -- mapping provenance -------------------------------------------------

    @property
    def final_log_to_phys(self) -> Tuple[int, ...]:
        """The measurement layout after the last layer."""
        return self.layers[-1].output_log_to_phys

    def final_mapping(self) -> Mapping:
        """The measurement layout as a :class:`Mapping`."""
        return Mapping(list(self.final_log_to_phys), self.n_qubits)

    @property
    def net_permutation_is_identity(self) -> bool:
        """Does the whole program return every logical qubit home?"""
        return (self.final_log_to_phys
                == tuple(self.initial_mapping.log_to_phys))

    # -- lowering -----------------------------------------------------------

    def flatten(self) -> Circuit:
        """The whole program as one physical circuit, in layer order."""
        ops: List[Op] = []
        for layer in self.layers:
            ops.extend(layer.circuit.ops)
        return Circuit.from_ops_unchecked(self.n_qubits, ops)

    def n_ops(self) -> int:
        return sum(len(layer.circuit) for layer in self.layers)

    def swap_count(self) -> int:
        return sum(layer.circuit.swap_count for layer in self.layers)

    # -- telemetry ----------------------------------------------------------

    def telemetry(self) -> dict:
        """Plain-data summary for ``CompiledResult.extra["program"]``."""
        return {
            "layers": len(self.layers),
            "p": self.p,
            "mixer": self.mixer,
            "roles": [layer.role for layer in self.layers],
            "ops": self.n_ops(),
            "swaps": self.swap_count(),
            "net_permutation_identity": self.net_permutation_is_identity,
        }

    def __repr__(self) -> str:
        return (f"Program(n_qubits={self.n_qubits}, p={self.p}, "
                f"layers={len(self.layers)}, mixer={self.mixer!r}, "
                f"identity={self.net_permutation_is_identity})")


def layer_permutation(circuit: Circuit, initial_mapping: Mapping) -> Mapping:
    """The layout a layer's SWAPs leave behind, from ``initial_mapping``."""
    mapping = initial_mapping.copy()
    for op in circuit:
        if op.kind == SWAP:
            mapping.swap_physical(*op.qubits)
    return mapping


def reversed_layer(circuit: Circuit) -> Circuit:
    """The layer in reversed op order.

    All problem gates commute and SWAP is self-inverse, so the reversed
    layer implements the same logical gate set while applying the
    *inverse* net permutation — the cancellation trick behind
    :data:`ROLE_REVERSED_COST` layers.
    """
    return Circuit.from_ops_unchecked(circuit.n_qubits,
                                      list(circuit.ops)[::-1])
