"""End-to-end tests of the hybrid compiler (Fig 18) and its guarantees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (NoiseModel, architecture_for, grid, heavyhex,
                        hexagon, line, sycamore)
from repro.compiler import compile_qaoa
from repro.exceptions import SpecificationError
from repro.pipeline.selection import cost_f
from repro.problems import clique, random_problem_graph


ARCHES = {
    "line": lambda: line(12),
    "grid": lambda: grid(4, 4),
    "sycamore": lambda: sycamore(4, 4),
    "hexagon": lambda: hexagon(4, 4),
    "heavyhex": lambda: heavyhex(2, 6),
}


def compile_and_check(coupling, problem, **kwargs):
    result = compile_qaoa(coupling, problem, **kwargs)
    result.validate(coupling, problem)
    return result


class TestAllMethodsAllArchitectures:
    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("method", ["greedy", "ata", "hybrid"])
    def test_random_graph_compiles_and_validates(self, arch, method):
        coupling = ARCHES[arch]()
        n = min(coupling.n_qubits, 12)
        problem = random_problem_graph(n, 0.35, seed=3)
        compile_and_check(coupling, problem, method=method)

    @pytest.mark.parametrize("arch", ARCHES)
    def test_clique_compiles(self, arch):
        coupling = ARCHES[arch]()
        n = min(coupling.n_qubits, 10)
        compile_and_check(coupling, clique(n), method="hybrid")


class TestTheorem61:
    """Hybrid must never lose (in the selector's F) to pure ATA."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hybrid_no_worse_than_ata_in_score(self, seed):
        coupling = grid(4, 4)
        problem = random_problem_graph(14, 0.3, seed=seed)
        hybrid = compile_and_check(coupling, problem, method="hybrid")
        scores = hybrid.extra["scores"]
        best = min(scores.values())
        if "ata" in scores:
            assert best <= scores["ata"] + 1e-12
        assert best <= scores["greedy"] + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(arch=st.sampled_from(["line", "grid", "heavyhex", "sycamore"]),
           n=st.integers(4, 20),
           density=st.sampled_from([0.1, 0.3, 0.5]),
           seed=st.integers(0, 2**16),
           noisy=st.booleans())
    def test_hybrid_f_no_worse_than_standalone(self, arch, n, density,
                                               seed, noisy):
        """The selected F is <= the F of the standalone ``ata`` and
        ``greedy`` compiles under the hybrid's own normalisers."""
        coupling = architecture_for(arch, n)
        problem = random_problem_graph(n, density, seed=seed)
        noise = NoiseModel(coupling, seed=seed) if noisy else None
        seen = {}

        def observe(pass_, context, record):
            if pass_.name == "selection":
                seen["context"] = context

        hybrid = compile_qaoa(coupling, problem, method="hybrid",
                              noise=noise, gamma=0.4, on_pass_end=observe)
        context = seen["context"]
        # SelectionPass normalises by the finished greedy circuit, by
        # the pure-ATA candidate cc0 when greedy did not finish.
        norm = (context.candidates[0] if context.trace.remaining else
                next(c for c in context.candidates if c.label == "greedy"))
        best = hybrid.extra["scores"][hybrid.extra["selected"]]
        for method in ("ata", "greedy"):
            other = compile_qaoa(coupling, problem, method=method,
                                 noise=noise, gamma=0.4).circuit
            score = cost_f(other.depth(), other.cx_count(unify=True),
                           norm.depth, norm.gate_count,
                           noise.esp(other) if noise is not None else None)
            assert best <= score, (method, best, score)

    def test_depth_alpha_one_tracks_best_depth(self):
        # With alpha=1 the selector optimises depth only.
        coupling = grid(4, 4)
        problem = random_problem_graph(14, 0.3, seed=7)
        hybrid = compile_and_check(coupling, problem, method="hybrid",
                                   alpha=1.0)
        greedy = compile_and_check(coupling, problem, method="greedy")
        ata = compile_and_check(coupling, problem, method="ata")
        assert hybrid.depth() <= min(greedy.depth(), ata.depth())


class TestSparseVsDenseBehaviour:
    def test_sparse_prefers_greedy_like_depth(self):
        # A single far pair: greedy routes directly; rigid ATA would run
        # the whole pattern.
        coupling = grid(4, 4)
        problem = random_problem_graph(16, 0.05, seed=1)
        hybrid = compile_and_check(coupling, problem, method="hybrid")
        ata = compile_and_check(coupling, problem, method="ata",
                                use_range_detection=False)
        assert hybrid.depth() <= ata.depth()

    def test_dense_large_ata_beats_greedy_depth(self):
        # The crossover of Section 5.4: the structured solution wins on
        # dense inputs at scale (here: full clique on 6x6).
        coupling = grid(6, 6)
        problem = clique(36)
        greedy = compile_and_check(coupling, problem, method="greedy")
        ata = compile_and_check(coupling, problem, method="ata")
        assert ata.depth() <= greedy.depth()


class TestOptions:
    def test_noise_aware_compilation(self):
        coupling = grid(4, 4)
        noise = NoiseModel(coupling, seed=3)
        problem = random_problem_graph(12, 0.3, seed=5)
        result = compile_and_check(coupling, problem, method="hybrid",
                                   noise=noise)
        assert 0.0 < result.esp(noise) < 1.0

    def test_degree_placement(self):
        coupling = grid(4, 4)
        problem = random_problem_graph(12, 0.3, seed=5)
        compile_and_check(coupling, problem, method="greedy",
                          placement="degree")

    def test_exact_matching(self):
        coupling = grid(3, 3)
        problem = random_problem_graph(9, 0.4, seed=2)
        compile_and_check(coupling, problem, method="greedy",
                          matching="exact")

    def test_gamma_propagates(self):
        coupling = line(4)
        problem = clique(4)
        result = compile_and_check(coupling, problem, method="hybrid",
                                   gamma=0.9)
        from repro.ir.gates import CPHASE
        gates = [op for op in result.circuit if op.kind == CPHASE]
        assert gates and all(op.param == 0.9 for op in gates)

    def test_oversized_problem_rejected(self):
        with pytest.raises(ValueError):
            compile_qaoa(line(3), clique(5))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            compile_qaoa(line(3), clique(3), method="magic")

    def test_selected_label_recorded(self):
        result = compile_and_check(grid(3, 3),
                                   random_problem_graph(9, 0.4, seed=0))
        assert "selected" in result.extra
        assert result.extra["candidates"]["count"] >= 2


class TestPredictionSampling:
    def test_max_predictions_one_compiles(self):
        # Regression: snapshot sampling used to ZeroDivisionError whenever more
        # than one snapshot existed (ISSUE 1 satellite).
        coupling = grid(4, 4)
        problem = random_problem_graph(14, 0.35, seed=3)
        result = compile_and_check(coupling, problem, method="hybrid",
                                   max_predictions=1)
        assert result.extra["candidates"]["snapshots_sampled"] == 1

    def test_max_predictions_zero_rejected(self):
        with pytest.raises(ValueError, match="max_predictions"):
            compile_qaoa(grid(3, 3), clique(4), max_predictions=0)

    def test_max_predictions_negative_rejected(self):
        with pytest.raises(ValueError, match="max_predictions"):
            compile_qaoa(grid(3, 3), clique(4), max_predictions=-3)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), "0.5"])
    def test_bad_alpha_rejected_before_any_pass(self, alpha):
        passes = []
        with pytest.raises(SpecificationError, match="alpha"):
            compile_qaoa(grid(4, 4), random_problem_graph(12, 0.3, seed=1),
                         alpha=alpha,
                         on_pass_end=lambda pass_, context, record:
                         passes.append(pass_.name))
        assert passes == []


class TestTelemetry:
    def test_hybrid_records_pass_timings(self):
        result = compile_and_check(grid(4, 4),
                                   random_problem_graph(12, 0.3, seed=1))
        timings = {r["name"]: r["wall_s"] for r in result.extra["passes"]}
        for name in ("placement", "pattern", "greedy", "prediction",
                     "candidates", "selection"):
            assert name in timings
            assert timings[name] >= 0.0

    @pytest.mark.parametrize("method", ["greedy", "ata"])
    def test_other_methods_record_timings(self, method):
        result = compile_and_check(grid(4, 4),
                                   random_problem_graph(12, 0.3, seed=1),
                                   method=method)
        assert "placement" in [r["name"] for r in result.extra["passes"]]

    def test_cache_delta_recorded(self):
        from repro.batch import clear_caches
        clear_caches()
        coupling = grid(4, 4)
        problem = random_problem_graph(12, 0.3, seed=1)
        cold = compile_and_check(coupling, problem)
        assert cold.cache_stats["pattern"]["misses"] == 1
        # A fresh but identical coupling hits both process-local caches.
        warm = compile_and_check(grid(4, 4), problem)
        assert warm.cache_stats["pattern"]["hits"] == 1
        assert warm.cache_stats["distance_matrix"]["hits"] >= 1

    def test_candidate_pool_stats(self):
        result = compile_and_check(grid(4, 4),
                                   random_problem_graph(14, 0.35, seed=2))
        stats = result.extra["candidates"]
        labels = result.extra["scores"]
        assert stats["count"] == len(labels)
        assert stats["snapshots_sampled"] <= stats["snapshots_total"]
        assert result.extra["greedy_cycles"] >= 1
        assert sum(label.startswith("hybrid@") for label in labels) <= \
            stats["snapshots_sampled"]

    def test_to_record_is_plain_data(self):
        import json
        result = compile_and_check(grid(3, 3),
                                   random_problem_graph(9, 0.4, seed=0))
        record = result.to_record()
        assert record["depth"] == result.depth()
        json.dumps(record)  # must be JSON-serializable


class TestHamiltonianInputs:
    def test_ising_on_heavyhex(self):
        from repro.problems import nnn_ising_1d
        coupling = heavyhex(3, 10)
        problem = nnn_ising_1d(24)
        compile_and_check(coupling, problem, method="hybrid")
