"""Program assembly: one compiled cost layer -> the full p-layer schedule.

The compiler proper (every preset, baseline and the exact solver) emits a
single permuted cost layer.  ``AssemblyPass`` turns that layer into the
:class:`~repro.ir.program.Program` a p-layer QAOA run (or a Trotterized
Hamiltonian simulation) actually executes, using the **reversed-layer
optimization**: even cost layers replay the compiled layer verbatim, odd
cost layers replay its op-reversal.  All problem gates commute and SWAP
is self-inverse, so the reversed layer implements the same logical gate
set while applying the *inverse* net permutation — the permutations
cancel pairwise, no inter-layer remapping SWAPs are ever inserted, and
after an even number of cost layers every logical qubit is back at its
initial home (measurement layout recovered for free).

``layers=1`` (the default) assembles a one-cost-layer program whose layer
circuit is the compiled circuit **object itself** — byte-identical to
today's output — so the pass is always on without disturbing any golden
fixture.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..exceptions import SpecificationError
from ..ir.circuit import Circuit
from ..ir.gates import CPHASE, SWAP, Op
from ..ir.mapping import Mapping
from ..ir.program import (ROLE_COST, ROLE_MIXER, ROLE_REVERSED_COST, Program,
                          ProgramLayer, layer_permutation, reversed_layer)
from ..problems.graphs import ProblemGraph
from .base import Pass
from .context import CompilationContext

#: Mixer kinds the assembler understands.
MIXERS = ("rx", "none")


def _reangled_layer(circuit: Circuit, ops: Sequence[Op], mapping: Mapping,
                    gamma: float, problem: Optional[ProblemGraph]
                    ) -> "tuple[Circuit, Mapping]":
    """Rebuild a cost layer with per-edge angles ``gamma * weight``.

    Walks ``ops`` from ``mapping`` (mutated in place to the layer's final
    layout) so each CPHASE's *logical* edge — hence its weight — is known
    regardless of tags.
    """
    rebuilt: List[Op] = []
    for op in ops:
        if op.kind == CPHASE:
            lu = mapping.logical(op.qubits[0])
            lv = mapping.logical(op.qubits[1])
            if lu is None or lv is None:
                raise SpecificationError(
                    f"cannot re-angle {op!r}: it touches an unoccupied "
                    f"physical qubit")
            weight = (problem.weight(lu, lv)
                      if problem is not None and problem.is_weighted
                      else 1.0)
            rebuilt.append(Op(CPHASE, op.qubits, gamma * weight, op.tag))
        else:
            if op.kind == SWAP:
                mapping.swap_physical(*op.qubits)
            rebuilt.append(op)
    return Circuit.from_ops_unchecked(circuit.n_qubits, rebuilt), mapping


def assemble_program(
    circuit: Circuit,
    initial_mapping: Mapping,
    layers: int = 1,
    mixer: str = "rx",
    gammas: Optional[Sequence[float]] = None,
    betas: Optional[Sequence[float]] = None,
    compile_gamma: float = 0.0,
    problem: Optional[ProblemGraph] = None,
    name: str = "",
) -> Program:
    """Assemble a p-layer program from one compiled cost layer.

    Parameters
    ----------
    layers:
        p, the number of cost layers (>= 1).
    mixer:
        ``"rx"`` interleaves an RX wall on every mapped physical qubit
        after each cost layer; ``"none"`` emits cost layers only (the
        Trotterization schedule).
    gammas / betas:
        Optional per-layer angles (length ``layers`` each).  When absent
        the cost layers keep the compile-time angle and mixer walls are
        emitted at angle 0 with ``param=None`` — the simulator re-angles
        at run time either way.
    compile_gamma:
        The angle the compiler stamped on every CPHASE; layers whose
        requested angle equals it (on unweighted problems) reuse the
        compiled circuit object verbatim, which is what keeps ``p=1``
        byte-identical to the single-circuit output.
    problem:
        When weighted, each CPHASE is re-angled to ``gamma_k * w(edge)``
        (weighted MaxCut).
    """
    if layers < 1:
        raise SpecificationError(f"layers must be >= 1, got {layers}")
    if mixer not in MIXERS:
        raise SpecificationError(f"unknown mixer {mixer!r}; expected one of {MIXERS}")
    if gammas is not None and len(gammas) != layers:
        raise SpecificationError(
            f"gammas has {len(gammas)} entries for {layers} cost layers")
    if betas is not None and len(betas) != layers:
        raise SpecificationError(
            f"betas has {len(betas)} entries for {layers} mixer layers")

    n_qubits = circuit.n_qubits
    weighted = problem is not None and problem.is_weighted
    program_layers: List[ProgramLayer] = []
    current = initial_mapping.copy()
    # One object for every reversed layer: lint scans it once.
    reversed_circuit = reversed_layer(circuit)
    for k in range(layers):
        role = ROLE_COST if k % 2 == 0 else ROLE_REVERSED_COST
        gamma_k = gammas[k] if gammas is not None else None
        angle = gamma_k if gamma_k is not None else compile_gamma
        entry = tuple(current.log_to_phys)
        if not weighted and angle == compile_gamma:
            layer_circuit = (circuit if role == ROLE_COST
                             else reversed_circuit)
            current = layer_permutation(layer_circuit, current)
        else:
            ops = list(circuit.ops)
            if role == ROLE_REVERSED_COST:
                ops.reverse()
            layer_circuit, current = _reangled_layer(
                circuit, ops, current.copy(), angle, problem)
        program_layers.append(ProgramLayer(
            role=role, circuit=layer_circuit, param=gamma_k,
            input_log_to_phys=entry,
            output_log_to_phys=tuple(current.log_to_phys)))
        if mixer == "rx":
            beta_k = betas[k] if betas is not None else None
            homes = tuple(current.log_to_phys)
            wall = Circuit.from_ops_unchecked(
                n_qubits,
                [Op.rx(phys, 2.0 * (beta_k if beta_k is not None else 0.0))
                 for phys in homes])
            program_layers.append(ProgramLayer(
                role=ROLE_MIXER, circuit=wall, param=beta_k,
                input_log_to_phys=homes, output_log_to_phys=homes))
    return Program(n_qubits, program_layers, initial_mapping, name=name)


class AssemblyPass(Pass):
    """Build the layered program after the cost layer is compiled.

    Reads the compiled circuit and initial mapping (from the context, or
    from ``baseline_result`` for wrapped baselines); writes
    ``context.program`` and the plain-data ``extras["program"]``
    telemetry.  The knobs come from constructor arguments when given
    (baseline/solver pipelines, whose ``knobs`` dict is forwarded
    verbatim to the wrapped compiler) and fall back to the context's
    ``layers`` / ``mixer`` / ``gammas`` / ``betas`` knobs (paper
    presets).
    """

    name = "assembly"

    def __init__(self,
                 layers: Optional[int] = None,
                 mixer: Optional[str] = None,
                 gammas: Optional[Sequence[float]] = None,
                 betas: Optional[Sequence[float]] = None) -> None:
        self.layers = layers
        self.mixer = mixer
        self.gammas = gammas
        self.betas = betas

    def run(self, context: CompilationContext) -> bool:
        if context.baseline_result is not None:
            circuit = context.baseline_result.circuit
            mapping = context.baseline_result.initial_mapping
        else:
            context.require("circuit", "mapping")
            circuit = context.circuit
            mapping = context.mapping
        assert circuit is not None and mapping is not None
        layers = (self.layers if self.layers is not None
                  else int(context.knob("layers", 1) or 1))
        mixer = (self.mixer if self.mixer is not None
                 else str(context.knob("mixer", "rx") or "rx"))
        gammas = (self.gammas if self.gammas is not None
                  else context.knob("gammas"))
        betas = (self.betas if self.betas is not None
                 else context.knob("betas"))
        program = assemble_program(
            circuit, mapping, layers=layers, mixer=mixer,
            gammas=gammas, betas=betas, compile_gamma=context.gamma,
            problem=context.problem,
            name=f"{context.problem.name}@{context.method}-p{layers}")
        context.program = program
        context.extras["program"] = program.telemetry()
        return True
