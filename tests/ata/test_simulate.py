"""Simulated candidate metrics must equal the materialised circuit's.

The lazy-candidate path scores prefix+suffix candidates with the
streaming tracker in ``repro.ata.simulate``; selection only works if
those numbers are *identical* (not approximately equal — esp feeds a
float comparison) to what ``reference_metrics`` measures on the real
circuit built by ``ata_suffix``.  These tests sweep line / grid /
heavy-hex / Sycamore devices, with and without a noise model and range
detection, from both fresh mappings and greedy-prefix snapshots, plus a
deliberately incomplete pattern that leaves residual pairs for
``greedy_completion``.
"""

import pytest

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import architecture_for, grid, heavyhex_for, line, sycamore
from repro.arch.noise import NoiseModel
from repro.ata.executor import ata_suffix, detect_ranges, execute_pattern
from repro.ata.line_pattern import LinePattern
from repro.ata.registry import get_pattern
from repro.ata.simulate import MetricTracker, candidate_metrics
from repro.compiler import compile_qaoa
from repro.compiler.greedy import greedy_compile, replay_snapshots
from repro.ir.circuit import Circuit
from repro.ir.gates import Op
from repro.ir.mapping import Mapping
from repro.problems import random_problem_graph, regular_problem_graph


def reference_metrics(circuit, noise):
    return (circuit.depth(), circuit.cx_count(unify=True),
            noise.esp(circuit) if noise is not None else None)


DEVICES = [
    pytest.param(lambda: line(12), 12, id="line12"),
    pytest.param(lambda: grid(4, 5), 20, id="grid4x5"),
    pytest.param(lambda: heavyhex_for(20), 18, id="heavyhex"),
    pytest.param(lambda: sycamore(4, 4), 16, id="sycamore4x4"),
]


#: Noise model on or off, crossed with range detection on or off
#: ("whole" runs the architecture pattern over the whole device).
MODES = pytest.mark.parametrize("with_noise, use_range_detection", [
    pytest.param(False, True, id="ideal"),
    pytest.param(True, True, id="noisy"),
    pytest.param(False, False, id="ideal-whole"),
    pytest.param(True, False, id="noisy-whole"),
])


@pytest.mark.parametrize("make_coupling, n_logical", DEVICES)
@MODES
def test_pure_suffix_metrics_match(make_coupling, n_logical, with_noise,
                                   use_range_detection):
    coupling = make_coupling()
    n_logical = min(n_logical, coupling.n_qubits)
    problem = regular_problem_graph(n_logical, 3, seed=5)
    mapping = Mapping.trivial(n_logical, coupling.n_qubits)
    noise = NoiseModel(coupling, seed=3) if with_noise else None
    pattern = get_pattern(coupling)

    circuit, _ = ata_suffix(coupling, pattern, mapping, problem.edges,
                            gamma=0.7,
                            use_range_detection=use_range_detection)
    assert candidate_metrics(coupling, pattern, mapping, problem.edges,
                             noise=noise,
                             use_range_detection=use_range_detection
                             ) == reference_metrics(circuit, noise)


@pytest.mark.parametrize("make_coupling, n_logical", DEVICES)
@MODES
def test_prefix_fork_metrics_match(make_coupling, n_logical, with_noise,
                                   use_range_detection):
    """Greedy prefix + ATA suffix at every snapshot, via tracker forking."""
    coupling = make_coupling()
    n_logical = min(n_logical, coupling.n_qubits)
    problem = regular_problem_graph(n_logical, 3, seed=9)
    mapping = Mapping.trivial(n_logical, coupling.n_qubits)
    noise = NoiseModel(coupling, seed=3) if with_noise else None
    pattern = get_pattern(coupling)

    trace = greedy_compile(coupling, problem, mapping, noise=noise,
                           gamma=0.4, max_cycles=6)
    tracker = MetricTracker(coupling.n_qubits, noise)
    checked = 0
    for snapshot, at, remaining in replay_snapshots(
            trace.circuit, mapping, problem.edges, trace.snapshots,
            feed=tracker.feed_ops):
        if not remaining or snapshot.op_count == 0:
            continue
        simulated = candidate_metrics(
            coupling, pattern, at, remaining,
            noise=noise, use_range_detection=use_range_detection,
            prefix_tracker=tracker.copy())
        prefix = Circuit(coupling.n_qubits,
                         list(trace.circuit.ops[:snapshot.op_count]))
        circuit, _ = ata_suffix(coupling, pattern, at, remaining, gamma=0.4,
                                use_range_detection=use_range_detection,
                                circuit=prefix)
        assert simulated == reference_metrics(circuit, noise)
        checked += 1
    assert checked > 0


class HalfLinePattern(LinePattern):
    """A line pattern cut after half its cycles: it cannot meet every
    pair, so execution leaves residuals for ``greedy_completion``."""

    # No distinct-cycle plan: the simulator must replay ``cycles()`` as cut.
    _compiled_plan = None

    def cycles(self):
        full = list(super().cycles())
        return iter(full[:len(full) // 2])

    def restrict(self, qubits):
        sub = super().restrict(qubits)
        return self if sub is self else HalfLinePattern(sub.path)


@MODES
def test_residual_completion_metrics_match(with_noise, use_range_detection):
    """Two 5-cliques on a 10-qubit line: range detection splits them into
    two cut sub-chains, and each region leaves pairs to complete."""
    coupling = line(10)
    edges = [(a + base, b + base) for base in (0, 5)
             for a in range(5) for b in range(a + 1, 5)]
    mapping = Mapping.trivial(10, coupling.n_qubits)
    noise = NoiseModel(coupling, seed=3) if with_noise else None
    pattern = HalfLinePattern(list(range(10)))

    plan = (detect_ranges(pattern, mapping, edges) if use_range_detection
            else [(pattern, set(edges))])
    assert len(plan) == (2 if use_range_detection else 1)
    assert all(execute_pattern(region, mapping, group)[2]
               for region, group in plan)
    circuit, _ = ata_suffix(coupling, pattern, mapping, edges, gamma=0.3,
                            use_range_detection=use_range_detection)
    assert candidate_metrics(coupling, pattern, mapping, edges,
                             noise=noise,
                             use_range_detection=use_range_detection
                             ) == reference_metrics(circuit, noise)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["line", "grid", "heavyhex", "sycamore"]),
       n_logical=st.integers(4, 24),
       density=st.floats(0.1, 0.6),
       graph_seed=st.integers(0, 2**16),
       with_noise=st.booleans(),
       use_range_detection=st.booleans())
def test_every_hybrid_candidate_matches_its_circuit(
        kind, n_logical, density, graph_seed, with_noise,
        use_range_detection):
    """Differential: every lazily scored candidate of a hybrid compile
    (``cc0`` and each ``hybrid@k``), from a quadratic-placement mapping,
    has the metrics of the circuit its materialiser builds."""
    coupling = architecture_for(kind, n_logical)
    problem = random_problem_graph(n_logical, density, seed=graph_seed)
    noise = NoiseModel(coupling, seed=graph_seed) if with_noise else None
    lazy = []

    def collect(pass_, context, record):
        if pass_.name == "candidates":
            lazy.extend(c for c in context.candidates if c.circuit is None)

    compile_qaoa(coupling, problem, method="hybrid", noise=noise,
                 gamma=0.5, use_range_detection=use_range_detection,
                 on_pass_end=collect)
    assert lazy or not problem.edges
    for candidate in lazy:
        metrics = (candidate.depth, candidate.gate_count, candidate.esp)
        assert metrics == reference_metrics(candidate.materialize(), noise), \
            candidate.label


@pytest.mark.parametrize("seed", range(12))
def test_esp_is_order_free(seed):
    """Reordering ops inside each ASAP layer keeps every fusion unit and
    CX count, so ``NoiseModel.esp`` must not move — it sums its terms
    exactly rounded, not in the order edges first complete."""
    coupling = grid(6, 6)
    problem = random_problem_graph(36, 0.3, seed=seed)
    noise = NoiseModel(coupling, seed=seed)
    circuit = compile_qaoa(coupling, problem, method="greedy").circuit
    layers = circuit.layers()
    rng = random.Random(seed)
    for _ in range(5):
        ops = []
        for layer in layers:
            layer = list(layer)
            rng.shuffle(layer)
            ops.extend(layer)
        shuffled = Circuit(coupling.n_qubits, ops)
        assert noise.cx_per_edge(shuffled) == noise.cx_per_edge(circuit)
        assert noise.esp(shuffled) == noise.esp(circuit)


def test_compiled_plan_matches_generated_cycles():
    """The distinct-cycle replay must equal the generator walk exactly —
    same cycles, same intra-cycle action order."""
    from repro.ata.grid_pattern import OptimizedGridPattern
    from repro.ata.heavyhex_pattern import HeavyHexPattern
    from repro.ata.line_pattern import LinePattern

    patterns = [
        LinePattern(list(range(2))),
        LinePattern(list(range(7))),
        LinePattern(list(range(10))),
        OptimizedGridPattern([[0, 1, 2]]),
        OptimizedGridPattern([[0], [1], [2]]),
        OptimizedGridPattern([[0, 1], [2, 3], [4, 5]]),
        OptimizedGridPattern([[0, 1, 2, 3], [4, 5, 6, 7],
                              [8, 9, 10, 11], [12, 13, 14, 15]]),
        OptimizedGridPattern([[c + 5 * r for c in range(5)]
                              for r in range(4)]),
        HeavyHexPattern(list(range(9)), {}),
        HeavyHexPattern([0, 1, 2, 3, 4], {5: [1, 3], 6: [0, 4]}),
    ]
    for pattern in patterns:
        distinct, schedule = pattern._compiled_plan()
        replayed = [distinct[i] for i in schedule]
        generated = [list(cycle) for cycle in pattern.cycles()]
        assert replayed == generated, repr(pattern)


def test_fork_does_not_disturb_parent():
    """Forked suffix simulation must leave the prefix tracker reusable."""
    coupling = line(8)
    problem = regular_problem_graph(8, 3, seed=4)
    mapping = Mapping.trivial(8, coupling.n_qubits)
    pattern = get_pattern(coupling)
    parent = MetricTracker(coupling.n_qubits, None)
    first = candidate_metrics(coupling, pattern, mapping, problem.edges,
                              prefix_tracker=parent.copy())
    second = candidate_metrics(coupling, pattern, mapping, problem.edges,
                               prefix_tracker=parent.copy())
    assert first == second


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["rx", "cphase", "swap", "cx"]),
                              st.integers(0, 6)), max_size=40),
       with_noise=st.booleans())
def test_running_depth_is_max_busy(ops, with_noise):
    """``depth`` is the early-exit test's view of the schedule length: it
    must equal ``max(busy)`` after every op, single-qubit ops included."""
    coupling = line(8)
    noise = NoiseModel(coupling, seed=1) if with_noise else None
    tracker = MetricTracker(coupling.n_qubits, noise)
    assert tracker.depth == 0
    for kind, q in ops:
        op = (Op.rx(q, 0.3) if kind == "rx"
              else getattr(Op, kind)(q, q + 1))
        tracker.feed_ops([op])
        assert tracker.depth == max(tracker.busy)
    assert tracker.finalize()[0] == max(tracker.busy)


#: Suffix scorings that run pattern cycles, residual completion, or both.
STOP_CASES = [
    pytest.param(lambda: line(12), None, True, id="line12"),
    pytest.param(lambda: grid(4, 5), None, False, id="grid4x5-whole"),
    pytest.param(lambda: line(10), HalfLinePattern(list(range(10))), True,
                 id="residual"),
]


def _stop_case(make_coupling, pattern):
    coupling = make_coupling()
    problem = regular_problem_graph(coupling.n_qubits, 3, seed=2)
    mapping = Mapping.trivial(coupling.n_qubits, coupling.n_qubits)
    return (coupling, pattern or get_pattern(coupling), mapping,
            problem.edges, NoiseModel(coupling, seed=4))


class FireAt:
    """A ``stop`` predicate that fires on its ``k``-th consultation
    (never, for ``k=None``) and counts how often it was asked."""

    def __init__(self, k=None):
        self.k = k
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.calls == self.k


@pytest.mark.parametrize("make_coupling, pattern, urd", STOP_CASES)
def test_stop_that_never_fires_changes_nothing(make_coupling, pattern, urd):
    coupling, pattern, mapping, edges, noise = _stop_case(make_coupling,
                                                          pattern)
    never = FireAt()
    plain = candidate_metrics(coupling, pattern, mapping, edges, noise=noise,
                              use_range_detection=urd)
    assert candidate_metrics(coupling, pattern, mapping, edges, noise=noise,
                             use_range_detection=urd, stop=never) == plain
    assert never.calls > 1


@pytest.mark.parametrize("make_coupling, pattern, urd", STOP_CASES)
def test_stop_that_fires_abandons_the_suffix(make_coupling, pattern, urd):
    """Firing on its k-th consultation, for every k the suffix reaches —
    on entry, after a pattern cycle or after a residual pair — abandons
    the scoring: ``candidate_metrics`` returns None."""
    coupling, pattern, mapping, edges, noise = _stop_case(make_coupling,
                                                          pattern)
    never = FireAt()
    candidate_metrics(coupling, pattern, mapping, edges, noise=noise,
                      use_range_detection=urd, stop=never)
    for k in range(1, never.calls + 1):
        assert candidate_metrics(coupling, pattern, mapping, edges,
                                 noise=noise, use_range_detection=urd,
                                 stop=FireAt(k)) is None, k
