"""Pipeline mechanics: pass records, timings, callbacks, skipping."""

import pytest

from repro.arch import grid
from repro.pipeline import (CompilationContext, Pass, PatternPass, Pipeline,
                            PlacementPass, build_context, build_pipeline)
from repro.problems import random_problem_graph


def make_context(**knobs):
    coupling = grid(4, 4)
    problem = random_problem_graph(10, 0.35, seed=2)
    return CompilationContext(coupling=coupling, problem=problem,
                              knobs=knobs)


class CountingPass(Pass):
    name = "counting"

    def __init__(self, skip=False):
        self.skip = skip
        self.calls = 0

    def run(self, context):
        self.calls += 1
        if self.skip:
            return False
        return True


class TestPipelineRun:
    def test_passes_run_in_order_with_records(self):
        first, second = CountingPass(), CountingPass()
        second.name = "second"
        context = make_context()
        Pipeline([first, second]).run(context)
        assert first.calls == second.calls == 1
        names = [r["name"] for r in context.extras["passes"]]
        assert names == ["counting", "second"]
        for record in context.extras["passes"]:
            assert record["wall_s"] >= 0.0
            assert "cache" in record and "skipped" in record

    def test_skipped_pass_recorded_but_not_timed(self):
        skipper = CountingPass(skip=True)
        context = make_context()
        Pipeline([skipper]).run(context)
        (record,) = context.extras["passes"]
        assert record["name"] == "counting"
        assert record["skipped"] is True

    def test_on_pass_end_callback_sees_every_pass(self):
        seen = []
        pipeline = Pipeline(
            [PlacementPass(), PatternPass()],
            on_pass_end=lambda p, ctx, rec: seen.append((p.name,
                                                         rec["skipped"])))
        pipeline.run(make_context())
        assert seen == [("placement", False), ("pattern", False)]

    def test_supplied_mapping_skips_placement(self):
        context = make_context()
        PlacementPass().run(context)
        mapping = context.mapping
        again = CompilationContext(coupling=context.coupling,
                                   problem=context.problem, mapping=mapping)
        Pipeline([PlacementPass()]).run(again)
        (record,) = again.extras["passes"]
        assert record["name"] == "placement"
        assert record["skipped"] is True
        assert again.mapping is mapping

    def test_compile_records_overall_cache_delta(self):
        context = build_context("greedy", grid(4, 4),
                                random_problem_graph(10, 0.35, seed=2))
        result = build_pipeline("greedy").compile(context)
        caches = [record["cache"] for record in result.extra["passes"]]
        summed = {name: {key: sum(cache[name][key] for cache in caches)
                         for key in ("hits", "misses")}
                  for name in caches[0]}
        assert summed and result.cache_stats == summed
        assert result.wall_time_s > 0.0


class TestPlacementFallback:
    def test_noise_placement_without_model_warns_and_records(self):
        context = make_context(placement="noise")
        with pytest.warns(UserWarning, match="placement='noise'"):
            PlacementPass().run(context)
        fallback = context.extras["placement_fallback"]
        assert fallback["requested"] == "noise"
        assert fallback["used"] == "quadratic"
        assert context.mapping is not None

    def test_noise_placement_with_model_does_not_warn(self):
        import warnings

        from repro.arch import NoiseModel

        context = make_context(placement="noise")
        context.noise = NoiseModel(context.coupling, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PlacementPass().run(context)
        assert "placement_fallback" not in context.extras

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            PlacementPass().run(make_context(placement="magic"))


class TestContext:
    def test_require_names_missing_field(self):
        with pytest.raises(ValueError, match="context.mapping"):
            make_context().require("mapping")

    def test_knob_default(self):
        context = make_context(alpha=0.7)
        assert context.knob("alpha") == 0.7
        assert context.knob("max_predictions", 24) == 24
