"""Pipeline equivalence suite (ISSUE 2 acceptance).

The pass-pipeline refactor must be a pure restructure: for the hybrid,
greedy and ata presets on line, grid and heavy-hex architectures with
fixed seeds, the selected circuits must have *identical* depth and CX
count to the pre-refactor ``compile_qaoa``.  The golden numbers below
were captured from the monolithic implementation (commit 309c8d3)
immediately before the pipeline landed.
"""

import pytest

from repro._telemetry import measure_cache_delta
from repro.arch import grid, heavyhex, line
from repro.compiler import compile_qaoa
from repro.problems import random_problem_graph

ARCHES = {
    "line": lambda: line(12),
    "grid": lambda: grid(4, 4),
    "heavyhex": lambda: heavyhex(2, 6),
}

#: (arch, seed, method) -> (depth, cx) from the pre-pipeline compiler.
GOLDEN = {
    ("line", 3, "hybrid"): (17, 118),
    ("line", 3, "greedy"): (17, 118),
    ("line", 3, "ata"): (18, 151),
    ("line", 11, "hybrid"): (17, 137),
    ("line", 11, "greedy"): (17, 137),
    ("line", 11, "ata"): (20, 168),
    ("grid", 3, "hybrid"): (11, 75),
    ("grid", 3, "greedy"): (11, 75),
    ("grid", 3, "ata"): (16, 156),
    ("grid", 11, "hybrid"): (9, 70),
    ("grid", 11, "greedy"): (9, 70),
    ("grid", 11, "ata"): (17, 143),
    ("heavyhex", 3, "hybrid"): (17, 95),
    ("heavyhex", 3, "greedy"): (17, 95),
    ("heavyhex", 3, "ata"): (20, 189),
    ("heavyhex", 11, "hybrid"): (15, 88),
    ("heavyhex", 11, "greedy"): (15, 88),
    ("heavyhex", 11, "ata"): (21, 203),
}

#: Each preset's ``extra["passes"]`` record names, in run order.
EXPECTED_PASSES = {
    "hybrid": ["placement", "pattern", "prediction", "greedy", "candidates",
               "selection", "assembly"],
    "greedy": ["placement", "greedy", "assembly"],
    "ata": ["placement", "pattern", "prediction", "assembly"],
}


def make_problem(coupling, seed):
    return random_problem_graph(min(coupling.n_qubits, 12), 0.35, seed=seed)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("arch,seed,method", sorted(GOLDEN))
    def test_depth_and_cx_match_pre_refactor(self, arch, seed, method):
        coupling = ARCHES[arch]()
        problem = make_problem(coupling, seed)
        result = compile_qaoa(coupling, problem, method=method)
        result.validate(coupling, problem)
        assert (result.depth(), result.gate_count) == \
            GOLDEN[(arch, seed, method)]


class TestTelemetryContract:
    @pytest.mark.parametrize("method", ["hybrid", "greedy", "ata"])
    @pytest.mark.parametrize("arch", sorted(ARCHES))
    def test_pass_records_in_order(self, arch, method):
        coupling = ARCHES[arch]()
        result = compile_qaoa(coupling, make_problem(coupling, 3),
                              method=method)
        passes = result.extra["passes"]
        assert [r["name"] for r in passes] == EXPECTED_PASSES[method]
        for record in passes:
            assert set(record) == {"name", "wall_s", "cache", "skipped"}
            assert record["wall_s"] >= 0.0
            assert record["skipped"] is False

    def test_hybrid_extras_unchanged(self):
        coupling = grid(4, 4)
        result = compile_qaoa(coupling, make_problem(coupling, 3))
        assert set(result.extra) == {"selected", "scores", "candidates",
                                     "greedy_cycles", "passes", "program"}

    @pytest.mark.parametrize("method", ["hybrid", "greedy", "ata", "sabre"])
    def test_cache_stats_sum_the_pass_records(self, method):
        coupling = grid(4, 4)
        problem = make_problem(coupling, 3)
        with measure_cache_delta() as scope:
            result = compile_qaoa(coupling, problem, method=method)
        caches = [record["cache"] for record in result.extra["passes"]]
        summed = {name: {key: sum(cache[name][key] for cache in caches)
                         for key in ("hits", "misses")}
                  for name in caches[0]}
        assert result.cache_stats == summed
        # Every cache event of the compile happens inside some pass.
        assert result.cache_stats == scope.delta()
