"""The cycle-batched walk against the frozen per-op walk.

``reference_walk.py`` keeps the walk that stamped every cycle and fed one
action per call.  Production compiles each cycle once with a kind flag,
skips the stamps on single-kind qubit-disjoint cycles and hands a whole
cycle (or a routed pair) to its consumer in one call.  Over every
structured architecture, with 3 spare qubits at densities 0.1-0.5, these
tests assert identical candidate metrics (scored to the end or stopped at
random thresholds, noise on and off, range detection on and off),
identical materialised circuits and identical final mappings, for pattern
suffixes, greedy-prefix forks, ``greedy_completion`` and Paulihedral.
"""

import random

import pytest

from repro.arch import architecture_for, mumbai
from repro.arch.noise import NoiseModel
from repro.ata.executor import ata_suffix, greedy_completion
from repro.ata.registry import get_pattern
from repro.ata.simulate import MetricTracker, candidate_metrics
from repro.baselines.paulihedral import compile_paulihedral
from repro.compiler.greedy import greedy_compile, replay_snapshots
from repro.ir.circuit import Circuit
from repro.ir.mapping import Mapping
from repro.ir.serialize import circuit_to_dict
from repro.problems import random_problem_graph

from .reference_walk import (ReferenceTracker, reference_ata_suffix,
                             reference_candidate_metrics,
                             reference_greedy_completion,
                             reference_paulihedral)

#: ``(kind, physical qubits asked for)``; mumbai is the irregular
#: heavy-hex device whose pattern leaves residual pairs to route.
ARCHS = [("line", 14), ("grid", 16), ("heavyhex", 20), ("sycamore", 16),
         ("hexagon", 16), ("cube", 18), ("mumbai", 27)]

DENSITIES = (0.1, 0.3, 0.5)

#: Noise model on or off, crossed with range detection on or off.
MODES = [(False, True), (True, True), (False, False), (True, False)]


def device(kind, n):
    return mumbai() if kind == "mumbai" else architecture_for(kind, n)


def instance(kind, n, density, seed):
    """A coupling, a problem on all but 3 of its qubits and a random
    placement of that problem."""
    coupling = device(kind, n)
    n_logical = coupling.n_qubits - 3
    problem = random_problem_graph(n_logical, density, seed=seed)
    rng = random.Random(seed)
    homes = rng.sample(range(coupling.n_qubits), n_logical)
    return coupling, problem, Mapping(homes, coupling.n_qubits)


def random_stop(rng, full):
    """``(field, threshold)``: stop once the running depth or CX count
    reaches a random value up to the full scoring's."""
    depth, cx, _ = full
    if rng.random() < 0.5:
        return "depth", rng.randint(1, max(depth, 1))
    return "cx", rng.randint(1, max(cx, 1))


def stop_on(tracker, spec):
    field, threshold = spec
    return lambda: getattr(tracker, field) >= threshold


def mapping_of(mapping):
    return list(mapping.log_to_phys), mapping.n_physical


CASES = [pytest.param(kind, n, density, id=f"{kind}-d{density}")
         for kind, n in ARCHS for density in DENSITIES]


@pytest.mark.parametrize("kind, n, density", CASES)
def test_suffix_scores_circuits_and_mappings_match(kind, n, density):
    seed = int(density * 100) + n
    coupling, problem, mapping = instance(kind, n, density, seed)
    pattern = get_pattern(coupling)
    rng = random.Random(seed)
    for with_noise, urd in MODES:
        noise = NoiseModel(coupling, seed=3) if with_noise else None
        full = candidate_metrics(coupling, pattern, mapping, problem.edges,
                                 noise=noise, use_range_detection=urd)
        assert full == reference_candidate_metrics(
            coupling, pattern, mapping, problem.edges, noise=noise,
            use_range_detection=urd)
        for _ in range(4):
            tracker = MetricTracker(coupling.n_qubits, noise)
            reference = ReferenceTracker(coupling.n_qubits, noise)
            spec = random_stop(rng, full)
            got = candidate_metrics(
                coupling, pattern, mapping, problem.edges, noise=noise,
                use_range_detection=urd, prefix_tracker=tracker,
                stop=stop_on(tracker, spec))
            want = reference_candidate_metrics(
                coupling, pattern, mapping, problem.edges, noise=noise,
                use_range_detection=urd, prefix_tracker=reference,
                stop=stop_on(reference, spec))
            assert got == want, spec
            assert (tracker.depth, tracker.cx) == (reference.depth,
                                                   reference.cx), spec

        circuit, final = ata_suffix(coupling, pattern, mapping,
                                    problem.edges, gamma=0.6,
                                    use_range_detection=urd)
        ref_circuit, ref_final = reference_ata_suffix(
            coupling, pattern, mapping, problem.edges, gamma=0.6,
            use_range_detection=urd)
        assert circuit_to_dict(circuit) == circuit_to_dict(ref_circuit)
        assert mapping_of(final) == mapping_of(ref_final)


@pytest.mark.parametrize("kind, n, density", CASES)
def test_prefix_fork_scores_match(kind, n, density):
    """Greedy prefixes fed in snapshot slices, then the suffix from each
    sampled snapshot, against per-op feeding throughout."""
    seed = int(density * 100) + n + 1
    coupling, problem, mapping = instance(kind, n, density, seed)
    pattern = get_pattern(coupling)
    noise = NoiseModel(coupling, seed=5)
    trace = greedy_compile(coupling, problem, mapping, noise=noise,
                           gamma=0.4, max_cycles=5)
    tracker = MetricTracker(coupling.n_qubits, noise)
    reference = ReferenceTracker(coupling.n_qubits, noise)

    def feed_both(ops):
        tracker.feed_ops(ops)
        for op in ops:
            reference.feed_op(op)

    checked = 0
    for snapshot, at, remaining in replay_snapshots(
            trace.circuit, mapping, problem.edges, trace.snapshots,
            feed=feed_both):
        assert tracker.finalize() == reference.finalize()
        if not remaining or snapshot.op_count == 0:
            continue
        for urd in (True, False):
            assert candidate_metrics(
                coupling, pattern, at, remaining, noise=noise,
                use_range_detection=urd, prefix_tracker=tracker.copy()
            ) == reference_candidate_metrics(
                coupling, pattern, at, remaining, noise=noise,
                use_range_detection=urd, prefix_tracker=reference.copy())
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("kind, n", ARCHS)
def test_greedy_completion_matches(kind, n):
    coupling, problem, mapping = instance(kind, n, 0.3, n)
    rng = random.Random(n)
    residual = set(rng.sample(sorted(problem.edges), 12))
    want_circuit, want_mapping = reference_greedy_completion(
        coupling, mapping, residual, gamma=0.2)
    circuit = Circuit(coupling.n_qubits)
    moved = mapping.copy()
    greedy_completion(coupling, circuit, moved, residual, gamma=0.2)
    assert circuit_to_dict(circuit) == circuit_to_dict(want_circuit)
    assert mapping_of(moved) == mapping_of(want_mapping)
    assert not residual


@pytest.mark.parametrize("kind, n", ARCHS)
@pytest.mark.parametrize("density", (0.1, 0.5))
def test_paulihedral_matches(kind, n, density):
    coupling, problem, _ = instance(kind, n, density, n + 7)
    result = compile_paulihedral(coupling, problem, gamma=0.3)
    want, _ = reference_paulihedral(coupling, problem, gamma=0.3)
    assert circuit_to_dict(result.circuit) == circuit_to_dict(want)
