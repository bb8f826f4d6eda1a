"""Snapshot sampling, candidate pruning checked against an unpruned
re-scoring of the same pool, the greedy candidate's tracker metrics, and
the ``alpha`` check that pruning no longer repeats."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch import NoiseModel, architecture_for
from repro.ata.simulate import MetricTracker, candidate_metrics
from repro.compiler import compile_qaoa
from repro.compiler.greedy import replay_snapshots
from repro.exceptions import SpecificationError
from repro.pipeline.prediction import CandidatePass, sample_snapshots
from repro.pipeline.selection import SelectionPass, cost_f
from repro.problems import random_problem_graph

SNAPSHOTS = list(range(10))


class TestSampleSnapshots:
    def test_one_keeps_only_pure_ata_endpoint(self):
        # max_predictions == 1 used to ZeroDivisionError in the general
        # formula; it must keep exactly the first (pure-ATA) snapshot.
        assert sample_snapshots(SNAPSHOTS, 1) == [0]

    def test_two_keeps_both_endpoints(self):
        assert sample_snapshots(SNAPSHOTS, 2) == [0, 9]

    def test_exact_length_returns_everything(self):
        assert sample_snapshots(SNAPSHOTS, len(SNAPSHOTS)) == SNAPSHOTS

    def test_more_than_length_returns_everything(self):
        assert sample_snapshots(SNAPSHOTS, len(SNAPSHOTS) + 5) == SNAPSHOTS

    def test_sample_is_evenly_spaced_and_sorted(self):
        sampled = sample_snapshots(list(range(100)), 5)
        assert sampled[0] == 0 and sampled[-1] == 99
        assert sampled == sorted(sampled)
        assert len(sampled) == 5
        gaps = [b - a for a, b in zip(sampled, sampled[1:])]
        assert max(gaps) - min(gaps) <= 1

    def test_no_duplicates_on_tiny_inputs(self):
        for k in range(1, 6):
            sampled = sample_snapshots([0, 1, 2], k)
            assert len(sampled) == len(set(sampled))


def unpruned_pool(context, max_predictions):
    """Every candidate ``CandidatePass`` considers, in pool order, as
    ``(label, (depth, cx, esp))``, each hybrid suffix scored to the end."""
    pool = [(c.label, (c.depth, c.gate_count, c.esp))
            for c in context.candidates if not c.label.startswith("hybrid@")]
    trace, coupling = context.trace, context.coupling
    tracker = MetricTracker(coupling.n_qubits, context.noise)
    for snapshot, mapping, remaining in replay_snapshots(
            trace.circuit, context.mapping, context.problem.edges,
            sample_snapshots(trace.snapshots, max_predictions),
            feed=tracker.feed_ops):
        if remaining and snapshot.op_count:
            pool.append((f"hybrid@{snapshot.cycle}", candidate_metrics(
                coupling, context.pattern, mapping, remaining,
                noise=context.noise, prefix_tracker=tracker.copy(),
                stop=None)))
    return pool


@settings(max_examples=80, deadline=None)
@given(arch=st.sampled_from(["line", "grid", "heavyhex", "sycamore"]),
       n=st.integers(4, 20),
       density=st.floats(0.1, 1.0),
       seed=st.integers(0, 2**16),
       noisy=st.booleans(),
       alpha=st.sampled_from([0.0, 0.5, 1.0]),
       max_predictions=st.sampled_from([1, 3, 24]))
# Pools where a hybrid improves on the candidates before it and a later
# hybrid improves again: pruning against the best of the *whole* pool
# would drop the first of them.
@example(arch="heavyhex", n=14, density=0.76, seed=34118, noisy=False,
         alpha=0.0, max_predictions=24)
@example(arch="grid", n=11, density=0.33, seed=49995, noisy=True,
         alpha=1.0, max_predictions=24)
def test_pruning_never_changes_metrics_or_selection(
        arch, n, density, seed, noisy, alpha, max_predictions):
    """A pruned candidate could not have been selected, a kept one has
    its unpruned metrics, and the winner is the unpruned first argmin."""
    coupling = architecture_for(arch, n)
    problem = random_problem_graph(n, density, seed=seed)
    noise = NoiseModel(coupling, seed=seed) if noisy else None
    seen = {}

    def observe(pass_, context, record):
        if pass_.name == "candidates":
            seen["kept"] = list(context.candidates)
            seen["pool"] = unpruned_pool(context, max_predictions)

    result = compile_qaoa(coupling, problem, method="hybrid", noise=noise,
                          gamma=0.4, alpha=alpha,
                          max_predictions=max_predictions,
                          on_pass_end=observe)
    kept, pool = seen["kept"], seen["pool"]
    # F's normalisers: the finished greedy circuit, else cc0.
    norm = next((c for c in kept if c.label == "greedy"), kept[0])
    scores = [cost_f(depth, cx, norm.depth, norm.gate_count, esp, alpha)
              for _, (depth, cx, esp) in pool]
    stats = result.extra["candidates"]
    assert stats["count"] == len(kept) == len(result.extra["scores"])
    assert stats["pruned"] == len(pool) - len(kept)

    position = 0
    for index, (label, metrics) in enumerate(pool):
        if (position < len(kept) and kept[position].label == label):
            candidate = kept[position]
            assert (candidate.depth, candidate.gate_count,
                    candidate.esp) == metrics, label
            position += 1
        else:
            assert index > 0 and scores[index] >= min(scores[:index]), label
    assert position == len(kept)
    first_argmin = min(range(len(pool)), key=scores.__getitem__)
    assert result.extra["selected"] == pool[first_argmin][0]


@settings(max_examples=60, deadline=None)
@given(arch=st.sampled_from(["line", "grid", "heavyhex", "sycamore",
                             "hexagon", "cube"]),
       n=st.integers(4, 24),
       density=st.floats(0.1, 1.0),
       seed=st.integers(0, 2**16),
       noisy=st.booleans(),
       unify_swaps=st.booleans())
def test_greedy_candidate_metrics_equal_circuit_measures(
        arch, n, density, seed, noisy, unify_swaps):
    """The greedy candidate's metrics come from one tracker pass; they
    are the circuit's own depth, fused CX count and ESP."""
    coupling = architecture_for(arch, n)
    problem = random_problem_graph(n, density, seed=seed)
    noise = NoiseModel(coupling, seed=seed) if noisy else None
    seen = {}

    def observe(pass_, context, record):
        if pass_.name == "candidates":
            seen["greedy"] = next(c for c in context.candidates
                                  if c.label == "greedy")

    compile_qaoa(coupling, problem, method="hybrid", noise=noise,
                 gamma=0.3, unify_swaps=unify_swaps, on_pass_end=observe)
    greedy = seen["greedy"]
    circuit = greedy.circuit
    assert (greedy.depth, greedy.gate_count, greedy.esp) == (
        circuit.depth(), circuit.cx_count(unify=True),
        noise.esp(circuit) if noise is not None else None)


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), "0.5"])
def test_bad_alpha_raises_from_compile_and_from_passes(alpha):
    """Pruning reads ``alpha`` unchecked after every cycle, so the check
    happens where ``alpha`` is read: at compile_qaoa's knob check and in
    the candidate and selection passes run on their own."""
    coupling = architecture_for("grid", 12)
    problem = random_problem_graph(12, 0.4, seed=3)
    with pytest.raises(SpecificationError, match="alpha"):
        compile_qaoa(coupling, problem, method="hybrid", alpha=alpha)
    seen = {}

    def keep(pass_, context, record):
        seen[pass_.name] = context

    compile_qaoa(coupling, problem, method="hybrid", on_pass_end=keep)
    context = seen["selection"]
    context.knobs["alpha"] = alpha
    with pytest.raises(SpecificationError, match="alpha"):
        SelectionPass().run(context)
    with pytest.raises(SpecificationError, match="alpha"):
        CandidatePass().run(context)
