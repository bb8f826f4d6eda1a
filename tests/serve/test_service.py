"""CompileService: store hits, in-flight dedupe, failure handling.

A thread-executor pool keeps these tests in-process (fault plans and
telemetry are visible to the workers) and fast (no interpreter spawns).
"""

import asyncio
import json
import multiprocessing

import pytest

from repro._telemetry import clear_events, event_info, percentile
from repro.batch.pool import PersistentPool
from repro.resilience.faults import FaultPlan, FaultSpec, active_plan
from repro.serve.protocol import normalize_request
from repro.serve.service import CompileService
from repro.serve.store import ResultStore

REQ = {"arch": "grid", "qubits": 8, "method": "greedy", "seed": 0}


@pytest.fixture
def pool():
    with PersistentPool(workers=2, executor="thread") as p:
        yield p


def payload_bytes(response):
    return json.dumps(response["result"], sort_keys=True)


def nearest_rank(samples, q):
    """The integer definition: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    ordered = sorted(samples)
    n = len(ordered)
    for rank in range(1, n + 1):
        if 100 * rank >= q * n:
            return ordered[rank - 1]
    return ordered[-1]


class TestPercentile:
    """The ``/stats`` latency p50/p90/p99 come from this function."""

    def test_matches_integer_nearest_rank(self):
        for n in range(1, 41):
            samples = [float(v) for v in range(n, 0, -1)]
            for q in (0, 25, 50, 75, 90, 99, 100):
                assert percentile(samples, q) == nearest_rank(samples, q), \
                    (n, q)

    def test_half_ranks_do_not_round_up(self):
        assert percentile(list(range(1, 11)), 50) == 5
        assert percentile(list(range(1, 11)), 90) == 9
        assert percentile([1, 2], 50) == 1

    def test_empty_sample_is_zero(self):
        assert percentile([], 50) == 0.0


class TestStoreServing:
    def test_repeat_is_served_from_store_without_dispatch(self, pool,
                                                          tmp_path):
        service = CompileService(pool, ResultStore(tmp_path / "store"))

        async def scenario():
            cold = await service.handle({**REQ, "id": 1})
            warm = await service.handle({**REQ, "id": 2})
            return cold, warm

        cold, warm = asyncio.run(scenario())
        assert cold["served_from"] == "compiled" and cold["ok"]
        assert warm["served_from"] == "store" and warm["ok"]
        # Byte-identical payload, and the pool was never touched again.
        assert payload_bytes(cold) == payload_bytes(warm)
        assert pool.submitted == 1
        assert warm["fingerprint"] == cold["fingerprint"]
        assert service.stats.store_hits == 1
        assert service.stats.store_misses == 1

    def test_store_survives_service_restart(self, pool, tmp_path):
        root = tmp_path / "store"
        first = CompileService(pool, ResultStore(root))
        cold = asyncio.run(first.handle(dict(REQ)))
        second = CompileService(pool, ResultStore(root))
        warm = asyncio.run(second.handle(dict(REQ)))
        assert warm["served_from"] == "store"
        assert payload_bytes(cold) == payload_bytes(warm)

    def test_semantically_equal_requests_share_one_entry(self, pool,
                                                         tmp_path):
        service = CompileService(pool, ResultStore(tmp_path / "store"))
        a = {**REQ, "gamma": 0.0}
        b = {**REQ, "gamma": -0.0}
        cold = asyncio.run(service.handle(a))
        warm = asyncio.run(service.handle(b))
        assert cold["fingerprint"] == warm["fingerprint"]
        assert warm["served_from"] == "store"

    def test_failures_are_not_stored(self, pool, tmp_path):
        store = ResultStore(tmp_path / "store")
        service = CompileService(pool, store)
        plan = FaultPlan([FaultSpec(site="batch.job", action="raise",
                                    error="compilation", times=10)])
        with active_plan(plan):
            response = asyncio.run(service.handle(dict(REQ)))
        assert response["ok"] is False
        assert response["served_from"] == "compiled"
        assert response["result"]["error_type"] == "CompilationError"
        assert store.count_entries() == 0
        assert service.stats.compile_failures == 1
        # The failed attempt must not poison later requests.
        retry = asyncio.run(service.handle(dict(REQ)))
        assert retry["ok"] is True
        assert store.count_entries() == 1


class TestInflightDedupe:
    def test_identical_concurrent_requests_execute_once(self, pool):
        service = CompileService(pool, store=None)

        async def scenario():
            return await asyncio.gather(
                service.handle({**REQ, "id": "a"}),
                service.handle({**REQ, "id": "b"}))

        first, second = asyncio.run(scenario())
        assert sorted([first["served_from"], second["served_from"]]) \
            == ["compiled", "inflight"]
        assert payload_bytes(first) == payload_bytes(second)
        assert pool.submitted == 1
        assert service.stats.inflight_dedupe == 1
        assert not service._inflight  # leader cleaned up after itself

    def test_different_requests_do_not_dedupe(self, pool):
        service = CompileService(pool, store=None)

        async def scenario():
            return await asyncio.gather(
                service.handle({**REQ, "seed": 0}),
                service.handle({**REQ, "seed": 1}))

        first, second = asyncio.run(scenario())
        assert {first["served_from"], second["served_from"]} \
            == {"compiled"}
        assert pool.submitted == 2


class TestRequestHandling:
    def test_bad_requests_become_error_envelopes_not_crashes(self, pool):
        service = CompileService(pool, store=None)
        response = asyncio.run(service.handle(
            {"id": 5, "arch": "grid", "qubits": 8, "sede": 3}))
        assert response["ok"] is False
        assert response["id"] == 5
        assert response["error_type"] == "SpecificationError"
        assert service.stats.request_errors == 1
        assert pool.submitted == 0

    def test_ping_and_stats_ops(self, pool):
        service = CompileService(pool, store=None)
        assert asyncio.run(service.handle({"op": "ping", "id": 1})) \
            == {"id": 1, "ok": True, "op": "ping"}
        stats = asyncio.run(service.handle({"op": "stats"}))
        assert stats["ok"] is True
        assert stats["stats"]["requests"] == 2

    def test_stats_payload_shape(self, pool, tmp_path):
        service = CompileService(pool, ResultStore(tmp_path / "store"))
        asyncio.run(service.handle(dict(REQ)))
        payload = service.stats_payload()
        assert payload["compiled"] == 1
        assert payload["store"]["entries"] == 1
        assert payload["pool"]["submitted"] == 1
        assert payload["inflight"] == 0
        assert payload["latency_ms"]["count"] == 1
        assert payload["latency_ms"]["p50"] > 0
        # Warm-pool evidence accumulates per compiled job.
        assert "cache_totals" in payload


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the fault plan reaches workers through fork")
class TestWorkerDeath:
    def test_poison_request_fails_alone_and_the_service_keeps_answering(
            self):
        poison, innocent = {**REQ, "seed": 1}, {**REQ, "seed": 2}
        # times=99: fork re-arms the kill in every fresh worker, so the
        # poison job kills its private workers too.
        plan = FaultPlan([FaultSpec(site="batch.job", action="kill",
                                    match=normalize_request(poison).name,
                                    times=99)])
        clear_events()
        with PersistentPool(workers=2, executor="process") as pool:
            service = CompileService(pool, store=None)

            async def scenario():
                return await asyncio.gather(service.handle(poison),
                                            service.handle(innocent))

            with active_plan(plan):
                bad, good = asyncio.run(scenario())
            after = asyncio.run(service.handle({**REQ, "seed": 3}))
            stats = service.stats_payload()
        assert good["ok"] is True
        assert bad["ok"] is False
        assert bad["result"]["error_type"] == "BrokenProcessPool"
        assert "restart budget (2) is spent" in bad["result"]["error"]
        assert after["ok"] is True and after["served_from"] == "compiled"
        # One breakage, one rebuild: concurrent victims share it.
        assert pool.restarts == 1
        assert event_info()["batch.pool_restarts"] == 1
        assert stats["pool_recoveries"] == 1
