"""The candidate pass's shared set-up equals a per-candidate one.

``CandidatePass`` resumes each candidate's walk from one state that
follows the snapshot replay (``Walk.follow``, ``Walk.resume``) and reads
each snapshot's components from one backward pass (``snapshot_labels``,
``label_components``).  These differential tests pin that this shared
set-up gives exactly what a per-candidate one — a fresh ``Walk`` and
``edge_components`` — gives: the same components in the same order, the
same range-detection plan as the frozen reference, the same walk state
with the same ``edges`` iteration order, and the same metrics.
"""

import random

import pytest

from repro.arch import NoiseModel, architecture_for
from repro.ata import get_pattern
from repro.ata.executor import Walk, detect_ranges, label_components
from repro.ata.simulate import MetricTracker, candidate_metrics
from repro.compiler.greedy import (Snapshot, greedy_compile,
                                   replay_snapshots, snapshot_labels)
from repro.compiler.mapping import quadratic_placement
from repro.ir.circuit import Circuit
from repro.ir.gates import Op
from repro.ir.mapping import Mapping
from repro.problems import random_problem_graph
from repro.problems.graphs import edge_components

from .reference_walk import reference_detect_ranges


@pytest.mark.parametrize("seed", range(40))
def test_labels_give_edge_components_in_order(seed):
    """Edges dropped in random order form nested remaining sets; at
    random cut points the backward labels name exactly the components
    ``edge_components`` finds over the walk's edges, in its order."""
    rng = random.Random(seed)
    n = rng.randrange(2, 48)
    density = rng.choice([0.03, 0.06, 0.1, 0.3])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density] or [(0, 1)]
    order = edges[:]
    rng.shuffle(order)
    n_dropped = rng.randrange(0, len(order) + 1)
    # Each dropped pair runs as a tagged CPHASE on the trivial placement.
    circuit = Circuit(n, [Op.cphase(u, v, 0.0, tag=(u, v))
                          for u, v in order[:n_dropped]])
    cuts = sorted({rng.randrange(0, n_dropped + 1)
                   for _ in range(rng.randrange(1, 10))})
    snapshots = [Snapshot(cycle, cut) for cycle, cut in enumerate(cuts)]
    labels = snapshot_labels(circuit, n, order[n_dropped:], snapshots)
    assert len(labels) == len(snapshots)
    for (_, mapping, remaining), snapshot_components in zip(
            replay_snapshots(circuit, Mapping.trivial(n), edges, snapshots),
            labels):
        walk = Walk(mapping, remaining)
        assert ([label >= 0 for label in snapshot_components]
                == [walk.degree[v] > 0 for v in range(n)])
        assert (label_components(snapshot_components, walk.edges)
                == edge_components(n, frozenset(list(walk.edges))))


def _traces():
    """Greedy traces whose snapshots mostly leave several components."""
    for kind in ("line", "grid", "sycamore", "hexagon", "heavyhex", "cube"):
        for n, density, seed in ((20, 0.1, 0), (20, 0.2, 1), (24, 0.4, 2)):
            coupling = architecture_for(kind, n)
            problem = random_problem_graph(n, density, seed=seed)
            mapping = quadratic_placement(coupling, problem, seed=seed)
            yield pytest.param(
                coupling, problem, mapping,
                greedy_compile(coupling, problem, mapping), density <= 0.2,
                id=f"{kind}-{n}-{density}")


@pytest.mark.parametrize("coupling, problem, mapping, trace, sparse",
                         list(_traces()))
def test_resumed_walk_and_shared_components(coupling, problem, mapping,
                                            trace, sparse):
    pattern = get_pattern(coupling)
    noise = NoiseModel(coupling, seed=3)
    scored = [s for s in trace.snapshots if s.op_count]
    labels = snapshot_labels(trace.circuit, mapping.n_logical,
                             trace.remaining, scored)
    state = Walk(mapping, problem.edges)
    tracker = MetricTracker(coupling.n_qubits, noise)
    several = 0
    for (_, at, remaining), snapshot_components in zip(
            replay_snapshots(trace.circuit, mapping, problem.edges, scored,
                             feed=lambda ops: (tracker.feed_ops(ops),
                                               state.follow(ops))),
            labels):
        if not remaining:
            continue
        walk = Walk.resume(state, at, remaining, snapshot_components)
        fresh = Walk(at, remaining)
        assert walk.p2l == fresh.p2l
        assert walk.needed == fresh.needed
        assert walk.degree == fresh.degree
        assert list(walk.edges) == list(fresh.edges)

        got = detect_ranges(pattern, at, walk.edges, snapshot_components)
        want = reference_detect_ranges(pattern, at, fresh.edges)
        assert ([(type(r), r.region, e) for r, e in got]
                == [(type(r), r.region, e) for r, e in want])
        several += len(set(snapshot_components) - {-1}) > 1

        for urd in (True, False):
            for model in (None, noise):
                prefix = (tracker.copy() if model is not None else None)
                assert candidate_metrics(
                    coupling, pattern, at, remaining, noise=model,
                    use_range_detection=urd, prefix_tracker=prefix,
                    state=state, labels=snapshot_components
                ) == candidate_metrics(
                    coupling, pattern, at, remaining, noise=model,
                    use_range_detection=urd,
                    prefix_tracker=(tracker.copy() if model is not None
                                    else None))
    # Candidates resumed from the state left it as the replay keeps it.
    assert ((state.p2l, state.needed, state.degree)
            == (fresh.p2l, fresh.needed, fresh.degree))
    if sparse:
        assert several, "no snapshot left several components"
