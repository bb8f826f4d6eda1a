"""The tracer: spans, self time, the call-site table and its wrappers."""

import asyncio
import importlib
import inspect

import pytest

from bench.layers import COMPILE_SITES, SERVE_SITES, SITES
from bench.trace import CallSite, Instrumentation, Span, Tracer


@pytest.mark.parametrize("site", SITES, ids=lambda site: site.name)
def test_every_call_site_resolves_to_a_live_attribute(site):
    owner, attr, original = site.resolve()
    assert callable(original)
    if inspect.isclass(owner):
        assert attr in vars(owner)
    else:
        assert getattr(importlib.import_module(site.module), attr) \
            is original


def test_site_names_are_unique():
    names = [site.name for site in SITES]
    assert len(names) == len(set(names))
    assert set(COMPILE_SITES) | set(SERVE_SITES) == set(SITES)


def test_a_renamed_site_fails_loudly():
    with pytest.raises(AttributeError):
        CallSite("x", "repro.pipeline.placement", "PlacementPass.nope") \
            .resolve()
    with pytest.raises(AttributeError):
        CallSite("x", "repro.pipeline.placement", "no_such_func").resolve()


def test_instrumentation_restores_every_original():
    before = [site.resolve()[2] for site in SITES]
    with Instrumentation(Tracer(), SITES):
        during = [site.resolve()[2] for site in SITES]
    after = [site.resolve()[2] for site in SITES]
    assert after == before
    assert all(d is not b for d, b in zip(during, before))


def test_nested_spans_have_non_negative_self_time():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
        with tracer.span("inner"):
            pass
    own = tracer.self_times()
    assert all(value >= 0.0 for value in own)
    outer, first, leaf, second = tracer.spans
    assert first.parent == 0 and second.parent == 0 and leaf.parent == 1
    assert own[0] == pytest.approx(
        outer.duration - first.duration - second.duration, abs=1e-12)
    assert own[1] == pytest.approx(first.duration - leaf.duration,
                                   abs=1e-12)


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    tracer.spans = [Span("parent", 0.0, 10.0),
                    Span("a", 1.0, 4.0, parent=0),
                    Span("b", 3.0, 6.0, parent=0),
                    Span("c", 8.0, 12.0, parent=0)]  # ends after parent
    assert tracer.self_times()[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert tracer.totals()["parent"] == (1, 10.0, pytest.approx(3.0))


def test_interleaved_tasks_keep_their_own_parents_and_requests():
    tracer = Tracer()

    async def request(name):
        with tracer.request(name):
            with tracer.span(f"{name}.outer"):
                await asyncio.sleep(0)
                with tracer.span(f"{name}.inner"):
                    await asyncio.sleep(0)

    async def both():
        await asyncio.gather(request("a"), request("b"))

    asyncio.run(both())
    by_name = {span.name: (index, span)
               for index, span in enumerate(tracer.spans)}
    for name in ("a", "b"):
        outer_index, outer = by_name[f"{name}.outer"]
        _, inner = by_name[f"{name}.inner"]
        assert outer.parent is None and inner.parent == outer_index
        assert outer.request == inner.request == name
    assert all(value >= 0.0 for value in tracer.self_times())


def test_dump_writes_spans_and_counts(tmp_path):
    import json

    tracer = Tracer()
    with tracer.request("r0"):
        with tracer.span("a"):
            tracer.count("n", 3)
    path = tmp_path / "spans.json"
    tracer.dump(path)
    document = json.loads(path.read_text())
    assert document["counts"] == {"n": 3}
    (span,) = document["spans"]
    assert span["name"] == "a" and span["request"] == "r0"
    assert span["parent"] is None and span["end"] >= span["start"]


def test_adopted_spans_nest_under_the_open_span():
    worker = Tracer()
    with worker.span("job"):
        with worker.span("pass"):
            pass
    worker.count("events", 2)
    tracer = Tracer()
    with tracer.request("r1"):
        with tracer.span("await"):
            tracer.adopt(worker.spans, worker.counts)
    await_span, job, pass_ = tracer.spans
    assert job.parent == 0 and pass_.parent == 1
    assert job.request == pass_.request == "r1"
    assert tracer.counts == {"events": 2}


def test_wrappers_count_and_label(monkeypatch):
    import types

    module = types.ModuleType("bench_fake_module")
    module.work = lambda x: x + 1

    class Thing:
        name = "t"

        def run(self, x):
            return module.work(x) * 2

    module.Thing = Thing
    monkeypatch.setitem(__import__("sys").modules, "bench_fake_module",
                        module)
    tracer = Tracer()
    sites = (CallSite("thing", "bench_fake_module", "Thing.run",
                      label=lambda args: f"thing.{args[0].name}"),
             CallSite("work", "bench_fake_module", "work", count_only=True))
    with Instrumentation(tracer, sites):
        assert Thing().run(1) == 4
    assert [span.name for span in tracer.spans] == ["thing.t"]
    assert tracer.counts == {"work.calls": 1}
    assert Thing().run(1) == 4 and len(tracer.spans) == 1
