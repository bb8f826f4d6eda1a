"""The content-addressed result store: durability and skeptical reads.

Both compile surfaces persist through it — ``repro serve`` answers
repeated requests from it and ``compile_many(store=...)`` resumes a
sweep from it — so the cross-surface tests below pin that either one
reads what the other wrote.
"""

import asyncio
import json
import os

import pytest

from repro.batch import compile_many
from repro.batch.jobs import BatchJob, JobResult
from repro.batch.pool import PersistentPool
from repro.resilience.faults import FaultPlan, FaultSpec, active_plan
from repro.serve.protocol import normalize_request
from repro.serve.service import CompileService
from repro.serve.store import (STORE_VERSION, ResultStore,
                               atomic_write_bytes, fsync_dir,
                               spec_fingerprint)
from tests.resilience.support import normalize_report

JOB = BatchJob(arch="grid", n_qubits=8, method="greedy")
FP = spec_fingerprint(JOB)


def ok_result(depth=3):
    return JobResult(job=JOB, ok=True, wall_time_s=0.25,
                     record={"depth": depth, "cx": 7},
                     cache={"pattern": {"hits": 1, "misses": 2}})


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_get_round_trip_is_exact(self, store):
        result = ok_result()
        assert store.put(FP, JOB, result) is True
        loaded = store.get_result(JOB, FP)
        assert loaded is not None
        assert json.dumps(loaded.to_json(), sort_keys=True) \
            == json.dumps(result.to_json(), sort_keys=True)

    def test_entries_are_sharded_by_fingerprint_prefix(self, store):
        store.put(FP, JOB, ok_result())
        path = store.path_for(FP)
        assert path.exists()
        assert path.parent.name == FP[:2]

    def test_failed_results_are_refused(self, store):
        failed = JobResult(job=JOB, ok=False, error="boom",
                           error_type="CompilationError")
        assert store.put(FP, JOB, failed) is False
        assert store.get(FP) is None
        assert store.count_entries() == 0

    def test_missing_entry_is_a_quiet_miss(self, store):
        assert store.get("0" * 64) is None
        assert store.get_result(JOB, "0" * 64) is None


class TestSkepticalReads:
    def test_truncated_json_degrades_to_a_counted_miss(self, store):
        store.put(FP, JOB, ok_result())
        path = store.path_for(FP)
        path.write_bytes(path.read_bytes()[:20])
        assert store.corrupt_reads == 0
        assert store.get(FP) is None
        assert store.corrupt_reads == 1

    def test_version_skew_degrades_to_a_miss(self, store):
        store.put(FP, JOB, ok_result())
        path = store.path_for(FP)
        doc = json.loads(path.read_bytes())
        doc["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(doc))
        assert store.get(FP) is None

    def test_fingerprint_mismatch_degrades_to_a_miss(self, store):
        # An entry renamed (or hard-linked) to the wrong address must
        # never be served for it.
        store.put(FP, JOB, ok_result())
        other = "ab" + "0" * 62
        target = store.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(store.path_for(FP).read_bytes())
        assert store.get(other) is None

    def test_corruption_heals_on_the_next_put(self, store):
        store.put(FP, JOB, ok_result())
        store.path_for(FP).write_text("{garbage")
        assert store.get(FP) is None
        store.put(FP, JOB, ok_result())
        assert store.get_result(JOB, FP) is not None


class TestCrashRecovery:
    PLAN = [FaultSpec(site="serve.store_write", action="raise",
                      error="runtime")]

    def test_fault_mid_publish_leaves_a_recoverable_store(self, store):
        # The serve.store_write site fires *between* the temp-file fsync
        # and the atomic rename — the narrowest crash window.
        with active_plan(FaultPlan(self.PLAN)):
            with pytest.raises(RuntimeError, match="injected"):
                store.put(FP, JOB, ok_result())
        assert store.get(FP) is None
        assert store.count_entries() == 0
        # The orphaned temp file is swept, then a clean retry publishes.
        assert store.sweep_temp_files() == 1
        assert store.put(FP, JOB, ok_result()) is True
        assert store.get_result(JOB, FP) is not None

    def test_sweep_ignores_published_entries(self, store):
        store.put(FP, JOB, ok_result())
        assert store.sweep_temp_files() == 0
        assert store.count_entries() == 1


class TestInventory:
    def test_iter_count_and_stats(self, store):
        assert store.count_entries() == 0
        store.put(FP, JOB, ok_result())
        assert list(store.iter_fingerprints()) == [FP]
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == store.path_for(FP).stat().st_size
        assert stats["corrupt_reads"] == 0

    def test_stats_skips_temp_files_and_reports_corrupt_reads(self, store):
        jobs = [BatchJob(arch="grid", n_qubits=8, method="greedy", seed=s)
                for s in range(3)]
        fingerprints = [spec_fingerprint(job) for job in jobs]
        for job, fingerprint in zip(jobs, fingerprints):
            store.put(fingerprint, job, ok_result())
        paths = [store.path_for(fp) for fp in fingerprints]
        leftover = paths[0].with_name(paths[0].name + ".tmp.4242")
        leftover.write_bytes(b"half a write")
        paths[1].write_bytes(paths[1].read_bytes()[:20])
        assert store.get(fingerprints[1]) is None
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] == sum(p.stat().st_size for p in paths)
        assert stats["corrupt_reads"] == 1

    def test_empty_store_is_not_falsy(self, store):
        # `if store` guards mean "is a store configured"; an empty store
        # silently disabling itself was a real bug.
        assert bool(store) is True


class TestJobResultRoundTrip:
    """The stored payload is :meth:`JobResult.to_json`; it must be lossless."""

    @staticmethod
    def _result(job):
        return JobResult(job=job, ok=True, wall_time_s=0.25,
                         record={"depth": 7, "cx": 9, "swaps": 1,
                                 "extra": {"greedy_cycles": 4}},
                         cache={"distance_matrix": {"hits": 1,
                                                    "misses": 0}},
                         attempts=[{"attempt": 1,
                                    "error_type": "TransientError",
                                    "error": "blip", "transient": True,
                                    "retried": True, "backoff_s": 0.05}])

    def test_to_json_from_json_is_lossless(self):
        original = self._result(JOB)
        rebuilt = JobResult.from_json(JOB, json.loads(
            json.dumps(original.to_json())))
        assert rebuilt == original
        assert rebuilt.retries == 1

    def test_failure_round_trip(self):
        original = JobResult(job=JOB, ok=False, error="boom",
                             error_type="TransientError")
        assert JobResult.from_json(JOB, original.to_json()) == original


class TestFsyncDir:
    def test_fsyncs_a_real_directory(self, tmp_path):
        fsync_dir(tmp_path)  # must not raise

    def test_degrades_to_noop_on_unopenable_path(self, tmp_path):
        fsync_dir(tmp_path / "does-not-exist")  # must not raise


class TestAtomicWriteBytes:
    def test_round_trip_and_no_temp_leftovers(self, tmp_path):
        target = tmp_path / "entry.json"
        atomic_write_bytes(target, b"first")
        assert target.read_bytes() == b"first"
        atomic_write_bytes(target, b"second")
        assert target.read_bytes() == b"second"
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_failed_replace_cleans_up_and_keeps_old_content(
            self, tmp_path, monkeypatch):
        target = tmp_path / "entry.json"
        atomic_write_bytes(target, b"old")

        def boom(src, dst):
            raise OSError("injected replace failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="injected"):
            atomic_write_bytes(target, b"new")
        monkeypatch.undo()
        assert target.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_publish_hook_runs_in_the_crash_window(self, tmp_path):
        target = tmp_path / "entry.json"
        seen = {}

        def hook():
            # The temp file exists and is complete; the target does not.
            tmp = list(tmp_path.glob("*.tmp.*"))
            seen["tmp_content"] = tmp[0].read_bytes() if tmp else None
            seen["target_exists"] = target.exists()

        atomic_write_bytes(target, b"payload", publish_hook=hook)
        assert seen == {"tmp_content": b"payload", "target_exists": False}
        assert target.read_bytes() == b"payload"

    def test_raising_hook_leaves_orphaned_temp_not_target(self, tmp_path):
        target = tmp_path / "entry.json"

        def hook():
            raise RuntimeError("crash mid-publish")

        with pytest.raises(RuntimeError):
            atomic_write_bytes(target, b"payload", publish_hook=hook)
        assert not target.exists()
        assert len(list(tmp_path.glob("*.tmp.*"))) == 1


class TestCrossSurface:
    """A store written by one compile surface is read by the other."""

    REQUESTS = [{"arch": "line", "qubits": 6, "method": "greedy",
                 "seed": seed} for seed in range(3)]

    @staticmethod
    def _serve(store, requests):
        async def scenario(service):
            return [await service.handle(dict(request, id=index))
                    for index, request in enumerate(requests)]

        with PersistentPool(workers=2, executor="thread") as pool:
            responses = asyncio.run(scenario(CompileService(pool, store)))
            return responses, pool.submitted

    def test_batch_filled_store_answers_serve_requests(self, tmp_path):
        jobs = [normalize_request(request) for request in self.REQUESTS]
        report = compile_many(jobs, executor="serial",
                              store=ResultStore(tmp_path / "store"))
        assert report.resumed_jobs == 0 and len(report.ok) == len(jobs)

        responses, submitted = self._serve(ResultStore(tmp_path / "store"),
                                           self.REQUESTS)
        assert [r["served_from"] for r in responses] \
            == ["store"] * len(jobs)
        assert submitted == 0  # no worker dispatch
        assert [r["result"]["record"]["depth"] for r in responses] \
            == [r.record["depth"] for r in report.results]

    def test_serve_filled_store_resumes_a_batch(self, tmp_path):
        responses, submitted = self._serve(ResultStore(tmp_path / "store"),
                                           self.REQUESTS)
        assert [r["served_from"] for r in responses] \
            == ["compiled"] * len(self.REQUESTS)
        assert submitted == len(self.REQUESTS)

        jobs = [normalize_request(request) for request in self.REQUESTS]
        baseline = compile_many(jobs, executor="serial")
        resumed = compile_many(jobs, executor="serial",
                               store=ResultStore(tmp_path / "store"))
        assert resumed.resumed_jobs == len(jobs)
        assert normalize_report(resumed.to_json()) \
            == normalize_report(baseline.to_json())
