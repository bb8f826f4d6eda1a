"""ATA-suffix prediction and candidate-pool passes (Sections 6.3-6.4).

``PredictionPass`` executes the structured pattern from the *initial*
mapping — the pure-ATA circuit ``cc0`` of Theorem 6.1.  ``CandidatePass``
then splices ATA suffixes onto greedy prefixes at an evenly-spaced sample
of the recorded snapshots (:func:`sample_snapshots`), building the
candidate pool the selector scores.  A candidate that provably cannot be
selected is dropped before its suffix is fully simulated.
"""

from __future__ import annotations

from functools import partial
from typing import List, Sequence

from ..ata.executor import Walk, ata_suffix
from ..ata.simulate import candidate_metrics
from ..compiler.greedy import replay_snapshots, snapshot_labels
from ..ir.circuit import Circuit
from ..ir.tracker import MetricTracker
from .base import Pass
from .context import Candidate, CompilationContext
from .selection import check_alpha, cost_f, f_lower_bound, normalisers


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
        metrics = candidate_metrics(
            coupling, pattern, mapping, edges, noise=context.noise,
            use_range_detection=urd)
        assert metrics is not None  # no ``stop``: scored to the end
        depth, gates, esp = metrics
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

    ``SelectionPass`` keeps the *first* minimum of F in pool order, so a
    candidate whose F is at least the best F before it can never be
    selected.  Its suffix simulation stops as soon as
    :func:`~repro.pipeline.selection.f_lower_bound` over the running
    metrics reaches that best, and it is counted as ``pruned`` instead
    of joining the pool.  ``cc0`` and ``greedy`` are always scored in
    full.
    """

    name = "candidates"

    def run(self, context: CompilationContext):
        context.require("trace", "mapping", "pattern")
        trace = context.trace
        coupling, pattern = context.coupling, context.pattern
        sampled = sample_snapshots(trace.snapshots,
                                   context.knob("max_predictions", 24))
        # Snapshot 0 duplicates the pure ATA candidate.
        scored = [snapshot for snapshot in sampled if snapshot.op_count]
        # One tracker pass over the greedy circuit, forked at each scored
        # snapshot (a candidate's prefix metrics) and, when the engine
        # finished, run to the end for the greedy candidate's depth,
        # fused CX count and ESP, which pruning needs first.
        ops = trace.circuit.ops
        tracker = MetricTracker(coupling.n_qubits, context.noise)
        prefixes: List[MetricTracker] = []
        walked = 0
        for snapshot in scored:
            tracker.feed_ops(ops[walked:snapshot.op_count])
            walked = snapshot.op_count
            prefixes.append(tracker.copy())
        if not trace.remaining:
            tracker.feed_ops(ops[walked:])
            depth, gates, esp = tracker.finalize()
            context.candidates.append(Candidate(
                label="greedy", circuit=trace.circuit, depth=depth,
                gate_count=gates, esp=esp))
        gamma = context.gamma
        urd = context.knob("use_range_detection", True)
        alpha = context.knob("alpha", 0.5)
        check_alpha(alpha)  # once: ``cannot_win`` runs after every cycle
        noisy = context.noise is not None
        norm_depth, norm_gates = normalisers(context)
        best = min(cost_f(c.depth, c.gate_count, norm_depth, norm_gates,
                          c.esp, alpha) for c in context.candidates)
        pruned = 0

        def cannot_win(fork: MetricTracker) -> bool:
            return f_lower_bound(fork.depth, fork.cx, norm_depth,
                                 norm_gates, noisy, alpha) >= best

        # One walk of the greedy prefix rebuilds the mapping and
        # remaining edges at each scored snapshot and keeps one walk
        # state (placement, pending pairs, degrees) up to date.  Each
        # candidate's walk resumes from a copy of that state, reads the
        # snapshot's components from one backward pass, and feeds that
        # snapshot's prefix fork.  Scoring all candidates thus costs one
        # prefix pass plus one simulated suffix each — no intermediate
        # circuits are built.
        labels = snapshot_labels(trace.circuit, context.mapping.n_logical,
                                 trace.remaining, scored)
        state = Walk(context.mapping, context.problem.edges)
        for (snapshot, mapping, remaining), fork, components in zip(
                replay_snapshots(trace.circuit, context.mapping,
                                 context.problem.edges, scored,
                                 feed=state.follow),
                prefixes, labels):
            if not remaining:
                continue
            metrics = candidate_metrics(
                coupling, pattern, mapping, remaining,
                noise=context.noise, use_range_detection=urd,
                prefix_tracker=fork, stop=partial(cannot_win, fork),
                state=state, labels=components)
            if metrics is None:
                pruned += 1
                continue
            depth, gates, esp = metrics
            best = min(best, cost_f(depth, gates, norm_depth, norm_gates,
                                    esp, alpha))
            op_count = snapshot.op_count
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
            "pruned": pruned,
            "snapshots_total": len(trace.snapshots),
            "snapshots_sampled": len(sampled),
            "greedy_finished": not trace.remaining,
        }
        return True
