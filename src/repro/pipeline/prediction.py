"""ATA-suffix prediction and candidate-pool passes (Sections 6.3-6.4).

``PredictionPass`` executes the structured pattern from the *initial*
mapping — the pure-ATA circuit ``cc0`` of Theorem 6.1.  ``CandidatePass``
then splices ATA suffixes onto greedy prefixes at an evenly-spaced sample
of the recorded snapshots (:func:`sample_snapshots`), building the
candidate pool the selector scores.
"""

from __future__ import annotations

from typing import List, Sequence

from ..ata.executor import ata_suffix
from ..ata.simulate import MetricTracker, candidate_metrics
from ..ir.circuit import Circuit
from .base import Pass
from .context import Candidate, CompilationContext


def sample_snapshots(snapshots: Sequence, max_predictions: int) -> List:
    """Evenly sample snapshots, always keeping the first (pure ATA).

    The paper predicts after *every* mapping change; each prediction
    costs a full suffix execution, so we score an evenly-spaced sample of
    at most ``max_predictions`` snapshots, endpoints included.
    """
    if len(snapshots) <= max_predictions:
        return list(snapshots)
    if max_predictions == 1:
        # A single allowed prediction keeps the pure-ATA endpoint; the
        # general formula below would divide by zero here.
        return list(snapshots[:1])
    step = (len(snapshots) - 1) / (max_predictions - 1)
    indices = sorted({round(i * step) for i in range(max_predictions)})
    return [snapshots[i] for i in indices]


class PredictionPass(Pass):
    """Execute the full ATA pattern from the initial mapping.

    Reads ``mapping``, ``pattern`` and the ``use_range_detection`` knob.
    With ``as_result=True`` (the ``ata`` preset) the suffix circuit *is*
    the compiled circuit; otherwise (the hybrid preset) it becomes
    candidate 0 of the pool — ``cc0``, whose presence is what makes
    Theorem 6.1 hold.
    """

    name = "prediction"

    def __init__(self, as_result: bool = False) -> None:
        self.as_result = as_result

    def run(self, context: CompilationContext):
        context.require("mapping", "pattern")
        urd = context.knob("use_range_detection", True)
        if self.as_result:
            circuit, _ = ata_suffix(
                context.coupling, context.pattern, context.mapping,
                context.problem.edges, gamma=context.gamma,
                use_range_detection=urd)
            context.circuit = circuit
            return True
        # Hybrid preset: cc0 joins the pool as a lazily-materialised
        # candidate — its metrics are streamed by the simulator and the
        # circuit is only built if it wins selection.
        coupling, pattern = context.coupling, context.pattern
        mapping, gamma = context.mapping, context.gamma
        edges = context.problem.edges
        depth, gates, esp = candidate_metrics(
            coupling, pattern, mapping, edges, noise=context.noise,
            use_range_detection=urd)
        context.candidates.append(Candidate(
            label="ata", circuit=None, depth=depth, gate_count=gates,
            esp=esp,
            materialize=lambda: ata_suffix(
                coupling, pattern, mapping, edges, gamma=gamma,
                use_range_detection=urd)[0]))
        return True


class CandidatePass(Pass):
    """Build the hybrid candidate pool from the greedy trace.

    Reads ``trace`` (and ``pattern`` / ``max_predictions``); appends to
    ``candidates`` — the finished greedy circuit (when the engine
    completed within its cycle cap) plus one ``hybrid@<cycle>`` candidate
    per sampled snapshot, each a greedy prefix completed by the ATA
    suffix.  Writes the ``extra["candidates"]`` pool statistics.
    """

    name = "candidates"

    def run(self, context: CompilationContext):
        context.require("trace", "pattern")
        trace = context.trace
        if not trace.remaining:
            circuit, noise = trace.circuit, context.noise
            context.candidates.append(Candidate(
                label="greedy", circuit=circuit, depth=circuit.depth(),
                gate_count=circuit.cx_count(unify=True),
                esp=noise.esp(circuit) if noise is not None else None))
        sampled = sample_snapshots(trace.snapshots,
                                   context.knob("max_predictions", 24))
        coupling, pattern = context.coupling, context.pattern
        gamma = context.gamma
        urd = context.knob("use_range_detection", True)
        # One streaming walk of the greedy circuit: the tracker is fed
        # up to each sampled snapshot's op count (snapshots are in
        # emission order) and forked there, so scoring all candidates
        # costs one prefix pass plus one simulated suffix each — no
        # intermediate circuits are built.
        tracker = MetricTracker(coupling.n_qubits, context.noise)
        ops = trace.circuit.ops
        fed = 0
        for snapshot in sampled:
            if not snapshot.remaining or snapshot.op_count == 0:
                continue  # snapshot 0 duplicates the pure ATA candidate
            while fed < snapshot.op_count:
                tracker.feed_op(ops[fed])
                fed += 1
            fork = tracker.copy()
            depth, gates, esp = candidate_metrics(
                coupling, pattern, snapshot.mapping, snapshot.remaining,
                noise=context.noise, use_range_detection=urd,
                prefix_tracker=fork)
            op_count, mapping = snapshot.op_count, snapshot.mapping
            remaining = snapshot.remaining
            context.candidates.append(Candidate(
                label=f"hybrid@{snapshot.cycle}", circuit=None,
                depth=depth, gate_count=gates, esp=esp,
                materialize=lambda op_count=op_count, mapping=mapping,
                remaining=remaining: ata_suffix(
                    coupling, pattern, mapping, remaining, gamma=gamma,
                    use_range_detection=urd,
                    circuit=Circuit(coupling.n_qubits,
                                    list(ops[:op_count])))[0]))
        context.extras["candidates"] = {
            "count": len(context.candidates),
            "snapshots_total": len(trace.snapshots),
            "snapshots_sampled": len(sampled),
            "greedy_finished": not trace.remaining,
        }
        return True
