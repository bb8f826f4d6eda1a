"""The serve daemon's request core: dedupe, dispatch, store, telemetry.

:class:`CompileService` is front-end-agnostic — the HTTP and stdin-JSONL
framings in :mod:`repro.serve.daemon` both funnel into
:meth:`CompileService.handle`.  For each compile request:

1. normalize into a :class:`~repro.batch.jobs.BatchJob` and fingerprint
   it (:func:`~repro.resilience.journal.spec_fingerprint`);
2. **store hit** — serve the persisted result, no worker touched;
3. **in-flight hit** — an identical request is already compiling:
   await its shared future (one execution, N responses);
4. **miss** — dispatch to the warm :class:`~repro.batch.PersistentPool`,
   publish an ``ok`` result to the store, resolve all waiters.

Steps 2-4 run between awaits on the single event loop, so the
check-then-register sequence is atomic: two identical requests can
never both become the executing leader.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .._telemetry import count_event, percentile, sum_cache_deltas
from ..batch.jobs import BatchJob, JobResult
from ..batch.pool import PersistentPool
from ..resilience.faults import fault_point
from ..resilience.journal import spec_fingerprint
from .protocol import (error_response, normalize_request, request_op,
                       result_response)
from .store import ResultStore

#: Latency samples kept for the rolling percentile summary.
LATENCY_WINDOW = 2048

__all__ = ["LATENCY_WINDOW", "CompileService", "ServeStats"]


class ServeStats:
    """Cumulative counters plus a rolling latency window.

    Mirrors of the ``serve.*`` process-local event counters
    (:func:`repro._telemetry.count_event`), kept here as well so the
    stats endpoint reports this service instance, not everything the
    process ever did.
    """

    def __init__(self) -> None:
        self.started_s = time.time()
        self.requests = 0
        self.compile_requests = 0
        self.store_hits = 0
        self.store_misses = 0
        self.inflight_dedupe = 0
        self.compiled = 0
        self.compile_failures = 0
        self.request_errors = 0
        self.latencies_ms: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        #: Summed per-job cache deltas of jobs *this service* compiled —
        #: the warm-pool proof: misses concentrate in the first requests
        #: and hits dominate once the workers are hot.
        self.cache_totals: Dict[str, Dict[str, int]] = {}

    def observe_latency(self, ms: float) -> None:
        self.latencies_ms.append(ms)

    def absorb_cache_delta(self, delta: Dict[str, Dict[str, int]]) -> None:
        self.cache_totals = sum_cache_deltas((self.cache_totals, delta))

    def snapshot(self) -> Dict[str, Any]:
        samples: List[float] = list(self.latencies_ms)
        lookups = self.store_hits + self.store_misses
        return {
            "uptime_s": time.time() - self.started_s,
            "requests": self.requests,
            "compile_requests": self.compile_requests,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "store_hit_rate": (self.store_hits / lookups) if lookups
            else 0.0,
            "inflight_dedupe": self.inflight_dedupe,
            "compiled": self.compiled,
            "compile_failures": self.compile_failures,
            "request_errors": self.request_errors,
            "latency_ms": {
                "count": len(samples),
                "p50": round(percentile(samples, 50), 3),
                "p90": round(percentile(samples, 90), 3),
                "p99": round(percentile(samples, 99), 3),
            },
            "cache_totals": {name: dict(counts) for name, counts
                             in sorted(self.cache_totals.items())},
        }


class CompileService:
    """Async compile front-door over a warm pool and a result store."""

    def __init__(self, pool: PersistentPool,
                 store: Optional[ResultStore] = None) -> None:
        self.pool = pool
        self.store = store
        self.stats = ServeStats()
        #: fingerprint -> future resolving to the leader's JobResult.
        self._inflight: Dict[str, "asyncio.Future[JobResult]"] = {}

    # -- request routing ---------------------------------------------------

    async def handle(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request in, one response envelope out; never raises."""
        self.stats.requests += 1
        count_event("serve.requests")
        try:
            op = request_op(payload)
            if op == "ping":
                return {"id": payload.get("id"), "ok": True, "op": "ping"}
            if op == "stats":
                return {"id": payload.get("id"), "ok": True,
                        "stats": self.stats_payload()}
            if op == "shutdown":
                # The front-end intercepts shutdown *before* handle();
                # reaching here means a bare service (tests) — ack it.
                return {"id": payload.get("id"), "ok": True,
                        "op": "shutdown"}
            return await self.compile(payload)
        except Exception as exc:  # daemon survives any request
            self.stats.request_errors += 1
            count_event("serve.request_errors")
            return error_response(payload, type(exc).__name__, str(exc))

    def stats_payload(self) -> Dict[str, Any]:
        payload = self.stats.snapshot()
        payload["pool_recoveries"] = self.pool.restarts
        payload["pool"] = self.pool.stats()
        payload["store"] = self.store.stats() if self.store is not None \
            else None
        payload["inflight"] = len(self._inflight)
        return payload

    # -- the compile path --------------------------------------------------

    async def compile(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one compile request from store, flight, or a worker."""
        started = time.perf_counter()
        job = normalize_request(payload)
        fingerprint = spec_fingerprint(job)
        self.stats.compile_requests += 1
        count_event("serve.compile_requests")
        fault_point("serve.request", f"{job.name}:{fingerprint[:12]}")

        # NOTE: no await between the store probe, the in-flight probe
        # and leader registration — this block is atomic on the loop.
        if self.store is not None:
            stored = self.store.get_result(job, fingerprint)
            if stored is not None:
                self.stats.store_hits += 1
                count_event("serve.store_hits")
                return self._respond(payload, fingerprint, job, stored,
                                     "store", started)
            self.stats.store_misses += 1
            count_event("serve.store_misses")

        shared = self._inflight.get(fingerprint)
        if shared is not None:
            self.stats.inflight_dedupe += 1
            count_event("serve.inflight_dedupe")
            result = await asyncio.shield(shared)
            return self._respond(payload, fingerprint, job, result,
                                 "inflight", started)

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[JobResult]" = loop.create_future()
        self._inflight[fingerprint] = future
        try:
            result = await self._execute(job)
            if self.store is not None and result.ok:
                self.store.put(fingerprint, job, result)
            future.set_result(result)
        except BaseException as exc:
            future.set_exception(exc)
            # A future nobody awaits would log "exception never
            # retrieved" on gc; mark it observed.
            future.exception()
            raise
        finally:
            self._inflight.pop(fingerprint, None)
        return self._respond(payload, fingerprint, job, result,
                             "compiled", started)

    async def _execute(self, job: BatchJob) -> JobResult:
        """Run ``job`` on the warm pool.

        A dead worker is the pool's to recover (the same policy batch
        runs use), so the result is always a :class:`JobResult`.
        """
        result = await asyncio.wrap_future(self.pool.submit(job))
        if result.ok:
            self.stats.compiled += 1
            count_event("serve.compiled")
            self.stats.absorb_cache_delta(result.cache)
        else:
            self.stats.compile_failures += 1
            count_event("serve.compile_failures")
        return result

    def _respond(self, payload: Dict[str, Any], fingerprint: str,
                 job: BatchJob, result: JobResult, served_from: str,
                 started: float) -> Dict[str, Any]:
        serve_ms = (time.perf_counter() - started) * 1000.0
        self.stats.observe_latency(serve_ms)
        return result_response(payload, fingerprint, job.name,
                               served_from, round(serve_ms, 3),
                               result.to_json())

    def close(self) -> None:
        """Release the pool (the store needs no teardown)."""
        self.pool.close()
