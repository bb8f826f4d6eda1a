"""End-to-end QAOA execution — the Figs 24/25 pipeline.

``logical_equivalent`` reduces a compiled (physical, SWAP-inserted)
circuit back to the logical interaction sequence by tracking the mapping,
so simulation runs on ``n_logical`` qubits while *noise* is charged for the
full physical circuit (SWAPs included) through its ESP.

``QaoaRunner`` performs the classical optimisation loop with COBYLA
(scipy), 8000 shots per round by default, minimising the negated expected
MaxCut value — exactly the paper's setup on IBM Mumbai.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..arch.noise import NoiseModel
from ..compiler.result import CompiledResult
from ..ir.circuit import Circuit
from ..ir.gates import CPHASE, SWAP, Op
from ..ir.mapping import Mapping
from ..ir.program import Program, layer_permutation
from ..problems.qaoa import QaoaProblem
from .noise import depolarized_probabilities, sample_counts, tvd
from .statevector import probabilities, run_circuit


def logical_equivalent(circuit: Circuit, initial_mapping: Mapping,
                       n_logical: int) -> Circuit:
    """The logical CPHASE sequence a compiled circuit implements."""
    mapping = initial_mapping.copy()
    logical = Circuit(n_logical)
    for op in circuit:
        if op.kind == CPHASE:
            lu = mapping.logical(op.qubits[0])
            lv = mapping.logical(op.qubits[1])
            if lu is None or lv is None:
                raise ValueError(f"{op!r} touches an unoccupied qubit")
            logical.append(Op.cphase(lu, lv, op.param))
        elif op.kind == SWAP:
            mapping.swap_physical(*op.qubits)
    return logical


def qaoa_layer_circuit(problem: QaoaProblem, cost_block: Circuit,
                       gamma: float, beta: float) -> Circuit:
    """H-wall + compiled cost block (re-angled) + mixer wall, on logical qubits."""
    return qaoa_multilayer_circuit(problem, cost_block, [gamma], [beta])


def qaoa_multilayer_circuit(problem: QaoaProblem, cost_block: Circuit,
                            gammas: Sequence[float],
                            betas: Sequence[float]) -> Circuit:
    """Depth-p QAOA from one compiled cost block.

    The compiled block's *structure* is angle-independent, so deeper QAOA
    re-runs the same block with per-layer angles (the paper's Section 7.4
    setup: "the circuit structure, 2-qubit gates do not change").
    """
    if len(gammas) != len(betas):
        raise ValueError("gammas and betas must have equal length")
    n = problem.n_qubits
    weighted = problem.graph.is_weighted
    circuit = Circuit(n)
    for q in range(n):
        circuit.append(Op.h(q))
    for gamma, beta in zip(gammas, betas):
        for op in cost_block:
            if op.kind != CPHASE:
                raise ValueError("cost block must contain only CPHASE ops")
            u, v = op.qubits
            angle = gamma * problem.graph.weight(u, v) if weighted else gamma
            circuit.append(Op.cphase(u, v, angle))
        for q in range(n):
            circuit.append(Op.rx(q, 2.0 * beta))
    return circuit


def program_logical_circuit(problem: QaoaProblem, program: Program,
                            gammas: Sequence[float],
                            betas: Sequence[float]) -> Circuit:
    """The logical circuit a compiled program implements, re-angled.

    Each cost layer is walked under its own recorded input mapping, so
    every CPHASE lands on the right *logical* edge regardless of the
    permutation state — including reversed layers — with angle
    ``gamma_k * w(edge)`` (weights are 1 on unweighted graphs).  Mixer
    walls become logical RX walls at ``2 * beta_k``; programs assembled
    without physical mixer layers (``mixer="none"``) still get a logical
    mixer after each cost layer, matching the single-circuit runner
    where mixers are never part of the compiled artifact.
    """
    if len(gammas) != program.p or len(betas) != program.p:
        raise ValueError(
            f"program has p={program.p} cost layers; expected that many "
            f"gammas and betas")
    n = problem.n_qubits
    weighted = problem.graph.is_weighted
    virtual_mixers = program.mixer == "none"
    circuit = Circuit(n)
    for q in range(n):
        circuit.append(Op.h(q))
    cost_seen = mixer_seen = 0
    for layer in program.layers:
        if layer.is_cost:
            gamma = gammas[cost_seen]
            cost_seen += 1
            mapping = layer.input_mapping(program.n_qubits)
            for op in layer.circuit:
                if op.kind == CPHASE:
                    lu = mapping.logical(op.qubits[0])
                    lv = mapping.logical(op.qubits[1])
                    if lu is None or lv is None:
                        raise ValueError(
                            f"{op!r} touches an unoccupied qubit")
                    angle = (gamma * problem.graph.weight(lu, lv)
                             if weighted else gamma)
                    circuit.append(Op.cphase(lu, lv, angle))
                elif op.kind == SWAP:
                    mapping.swap_physical(*op.qubits)
            if virtual_mixers:
                beta = betas[mixer_seen]
                mixer_seen += 1
                for q in range(n):
                    circuit.append(Op.rx(q, 2.0 * beta))
        elif layer.role == "mixer":
            beta = betas[mixer_seen]
            mixer_seen += 1
            for q in range(n):
                circuit.append(Op.rx(q, 2.0 * beta))
    return circuit


@dataclass
class QaoaRound:
    """One optimizer round: the angles tried and the measured energy."""

    gamma: object  # float (p=1) or tuple of per-layer angles
    beta: object
    energy: float  # negated expected cut (smaller is better)


@dataclass
class QaoaRunResult:
    """Full optimisation trace plus the circuit's ESP."""

    rounds: List[QaoaRound] = field(default_factory=list)
    best_energy: float = math.inf
    esp: float = 1.0

    @property
    def energies(self) -> List[float]:
        """Per-round measured energies, in execution order."""
        return [r.energy for r in self.rounds]

    def best_so_far(self) -> List[float]:
        """Monotone best-seen trace (the curve plotted in Figs 24/25)."""
        out, best = [], math.inf
        for e in self.energies:
            best = min(best, e)
            out.append(best)
        return out


class QaoaRunner:
    """COBYLA-driven QAOA loop over a compiled circuit on a noisy device.

    When the compiled result carries a multi-layer
    :class:`~repro.ir.program.Program` (``layers > 1``) and ``p`` is left
    at its default (or matches the program's depth), the runner executes
    the *program*: the logical circuit is rebuilt per layer under each
    layer's recorded mapping, ESP is charged for every physical layer —
    mixer walls included — and readout homes come from the program's
    final mapping (the initial placement again whenever the
    reversed-layer cancellation closed the permutation).  Otherwise the
    historic single-block behaviour is preserved exactly: the compiled
    cost block repeats ``p`` times and ESP compounds as ``block_esp**p``.
    """

    def __init__(
        self,
        problem: QaoaProblem,
        compiled: CompiledResult,
        noise: Optional[NoiseModel] = None,
        shots: int = 8000,
        seed: int = 0,
        p: Optional[int] = None,
        include_readout: bool = False,
    ) -> None:
        if p is not None and p < 1:
            raise ValueError("QAOA depth p must be >= 1")
        self.problem = problem
        self.compiled = compiled
        self.shots = shots
        self.rng = np.random.default_rng(seed)
        program = getattr(compiled, "program", None)
        self.program: Optional[Program] = None
        if (program is not None and program.p > 1
                and (p is None or p == program.p)):
            self.program = program
            self.p = program.p
            self.cost_block = None
            if noise is not None:
                esp = 1.0
                for layer in program.layers:
                    esp *= noise.esp(layer.circuit)
                self.esp = esp
            else:
                self.esp = 1.0
        else:
            self.p = 1 if p is None else p
            self.cost_block = logical_equivalent(
                compiled.circuit, compiled.initial_mapping,
                problem.n_qubits)
            block_esp = (noise.esp(compiled.circuit)
                         if noise is not None else 1.0)
            # The physical circuit repeats once per layer.
            self.esp = block_esp ** self.p
        self._cut_values = problem.cut_values_all()
        # Per-logical-qubit readout flip rates at the measurement homes.
        self.readout_rates: dict = {}
        if include_readout and noise is not None:
            if self.program is not None:
                final = self.program.final_mapping()
            else:
                final = layer_permutation(compiled.circuit,
                                          compiled.initial_mapping)
            self.readout_rates = {
                q: noise.readout_error[final.physical(q)]
                for q in range(problem.n_qubits)}

    # -- single evaluations -----------------------------------------------------

    def _angles(self, gamma, beta) -> tuple:
        gammas = [gamma] * self.p if np.isscalar(gamma) else list(gamma)
        betas = [beta] * self.p if np.isscalar(beta) else list(beta)
        if len(gammas) != self.p or len(betas) != self.p:
            raise ValueError(f"expected {self.p} angles per schedule")
        return gammas, betas

    def ideal_probabilities(self, gamma, beta) -> np.ndarray:
        """Noise-free measurement distribution at the given angles."""
        gammas, betas = self._angles(gamma, beta)
        if self.program is not None:
            circuit = program_logical_circuit(self.problem, self.program,
                                              gammas, betas)
        else:
            circuit = qaoa_multilayer_circuit(self.problem, self.cost_block,
                                              gammas, betas)
        return probabilities(run_circuit(circuit))

    def noisy_probabilities(self, gamma, beta) -> np.ndarray:
        """Device distribution: ESP mixture plus optional readout flips."""
        noisy = depolarized_probabilities(
            self.ideal_probabilities(gamma, beta), self.esp)
        if self.readout_rates:
            from .noise import apply_readout_errors

            noisy = apply_readout_errors(noisy, self.readout_rates)
        return noisy

    def measure_energy(self, gamma, beta) -> float:
        """One device round: sample shots, return the negated expected cut."""
        noisy = self.noisy_probabilities(gamma, beta)
        counts = sample_counts(noisy, self.shots, self.rng)
        estimate = float(np.dot(counts, self._cut_values)) / self.shots
        return -estimate

    def tvd_vs_ideal(self, gamma: float, beta: float,
                     shots: Optional[int] = None) -> float:
        """The Section 7.4 TVD metric at fixed angles."""
        ideal = self.ideal_probabilities(gamma, beta)
        counts = sample_counts(
            depolarized_probabilities(ideal, self.esp),
            shots or self.shots, self.rng)
        return tvd(counts / counts.sum(), ideal)

    # -- optimisation loop --------------------------------------------------------

    def optimize(self, max_rounds: int = 30,
                 x0: Optional[Sequence[float]] = None) -> QaoaRunResult:
        """Minimise energy with COBYLA for ``max_rounds`` circuit runs.

        The parameter vector is ``[gamma_1..gamma_p, beta_1..beta_p]``.
        """
        from scipy.optimize import minimize

        if x0 is None:
            x0 = [0.4] * (2 * self.p)
        if len(x0) != 2 * self.p:
            raise ValueError(f"x0 must have {2 * self.p} entries")
        result = QaoaRunResult(esp=self.esp)

        def objective(params: np.ndarray) -> float:
            gammas = [float(v) for v in params[:self.p]]
            betas = [float(v) for v in params[self.p:]]
            energy = self.measure_energy(gammas, betas)
            result.rounds.append(
                QaoaRound(tuple(gammas), tuple(betas), energy))
            result.best_energy = min(result.best_energy, energy)
            return energy

        minimize(objective, x0=np.asarray(x0, dtype=float),
                 method="COBYLA",
                 options={"maxiter": max_rounds, "rhobeg": 0.5})
        # COBYLA may stop early; pad bookkeeping is unnecessary — rounds
        # holds exactly the evaluations the "device" executed.
        return result
