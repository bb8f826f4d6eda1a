"""Circuit intermediate representation.

The IR layer is deliberately small: slotted :class:`~repro.ir.gates.Op`
values inside a :class:`~repro.ir.circuit.Circuit`, a bidirectional
:class:`~repro.ir.mapping.Mapping`, a decomposer to the CX basis
(:mod:`repro.ir.decompose`) and the semantic validator
(:mod:`repro.ir.validate`, a view of :mod:`repro.lint`'s blocking rules).
"""

from .circuit import Circuit, circuit_from_layers
from .draw import draw
from .qasm import from_qasm, to_qasm
from .serialize import (load_program, load_result, save_program, save_result)
from .decompose import count_cx, decompose_to_cx
from .gates import (CPHASE, CX, H, PHASE, RX, RZ, SWAP, Op, canonical_edge,
                    canonical_edges)
from .mapping import Mapping
from .program import (COST_ROLES, LAYER_ROLES, ROLE_COST, ROLE_MIXER,
                      ROLE_REVERSED_COST, Program, ProgramLayer,
                      layer_permutation, reversed_layer)
from .validate import ValidationReport, validate_compiled

__all__ = [
    "Circuit",
    "circuit_from_layers",
    "draw",
    "to_qasm",
    "from_qasm",
    "save_result",
    "load_result",
    "save_program",
    "load_program",
    "Program",
    "ProgramLayer",
    "layer_permutation",
    "reversed_layer",
    "ROLE_COST",
    "ROLE_REVERSED_COST",
    "ROLE_MIXER",
    "COST_ROLES",
    "LAYER_ROLES",
    "count_cx",
    "decompose_to_cx",
    "Op",
    "Mapping",
    "ValidationReport",
    "validate_compiled",
    "canonical_edge",
    "canonical_edges",
    "CPHASE",
    "CX",
    "H",
    "PHASE",
    "RX",
    "RZ",
    "SWAP",
]
