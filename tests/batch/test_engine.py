"""Tests for ``compile_many``: fan-out, caching, timeouts, failure capture."""

import json
import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.batch import (BatchJob, BatchReport, JobResult, PersistentPool,
                         clear_caches, compile_many, default_workers,
                         execute_job, jobs_for)
from repro.exceptions import SpecificationError


def mixed_jobs(n_qubits=12, seeds=(0, 1)):
    """16 mixed jobs: 4 architectures x 2 methods x 2 seeds."""
    return [
        BatchJob(arch=arch, n_qubits=n_qubits, density=0.3, seed=seed,
                 method=method)
        for arch in ("line", "grid", "heavyhex", "sycamore")
        for method in ("hybrid", "greedy")
        for seed in seeds
    ]


class TestSerialEngine:
    def test_all_jobs_succeed_in_order(self):
        jobs = mixed_jobs()
        report = compile_many(jobs, executor="serial")
        assert len(report.results) == 16
        assert [r.job for r in report.results] == jobs
        assert not report.failures
        for result in report.results:
            assert result.record["depth"] > 0
            assert result.record["cx"] > 0

    def test_cache_counters_prove_reuse(self):
        clear_caches()
        report = compile_many(mixed_jobs(), executor="serial")
        totals = report.cache_totals()
        # 4 architectures appear 4x each: first build misses, rest hit.
        assert totals["distance_matrix"]["misses"] == 4
        assert totals["distance_matrix"]["hits"] == 12
        assert totals["pattern"]["hits"] > 0

    def test_failing_job_is_captured_not_fatal(self):
        jobs = mixed_jobs()[:3] + [BatchJob(arch="mumbai", n_qubits=100)]
        report = compile_many(jobs, executor="serial")
        assert len(report.ok) == 3
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.error_type == "ArchitectureError"
        assert "mumbai" in failure.error

    def test_pass_totals_aggregate_pass_records(self):
        report = compile_many(mixed_jobs()[:4], executor="serial")
        payload = report.to_json()
        assert payload["schema_version"] == 4
        assert set(payload["pass_totals"]) == {
            "placement", "pattern", "prediction", "greedy", "candidates",
            "selection", "assembly"}
        assert all(seconds >= 0.0
                   for seconds in payload["pass_totals"].values())

    def test_pass_totals_skip_skipped_records_and_failed_jobs(self):
        job = BatchJob(arch="grid", n_qubits=9)
        passes = [
            {"name": "placement", "wall_s": 0.5, "cache": {},
             "skipped": True},
            {"name": "greedy", "wall_s": 0.25, "cache": {},
             "skipped": False},
        ]
        ok = JobResult(job=job, ok=True,
                       record={"extra": {"passes": passes}})
        failed = JobResult(job=job, ok=False, error="boom",
                           error_type="RuntimeError")
        report = BatchReport([ok, ok, failed], wall_time_s=1.0, workers=1,
                             executor="serial")
        assert report.pass_totals() == {"greedy": 0.5}
        assert report.to_json()["pass_totals"] == {"greedy": 0.5}

    def test_report_json_round_trips(self):
        jobs = mixed_jobs()[:2] + [BatchJob(arch="mumbai", n_qubits=100)]
        report = compile_many(jobs, executor="serial")
        payload = json.loads(json.dumps(report.to_json()))
        assert len(payload["jobs"]) == 3
        assert payload["jobs"][2]["ok"] is False
        assert "cache_totals" in payload


class TestProcessPool:
    def test_matches_serial_results(self):
        jobs = mixed_jobs()
        serial = compile_many(jobs, executor="serial")
        parallel = compile_many(jobs, workers=4, executor="process")
        assert not parallel.failures
        for s, p in zip(serial.results, parallel.results):
            assert s.job == p.job
            assert s.record["depth"] == p.record["depth"]
            assert s.record["cx"] == p.record["cx"]

    def test_failure_captured_across_processes(self):
        jobs = mixed_jobs()[:4] + [BatchJob(arch="mumbai", n_qubits=100)]
        report = compile_many(jobs, workers=2, executor="process")
        assert len(report.ok) == 4
        assert report.failures[0].error_type == "ArchitectureError"

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="speedup needs >= 4 CPU cores")
    def test_four_workers_at_least_twice_as_fast(self):
        # The ISSUE 1 acceptance criterion: >= 16 mixed instances, 4
        # workers, >= 2x wall-clock over the serial loop.
        jobs = mixed_jobs(n_qubits=32, seeds=(0, 1))
        clear_caches()
        t0 = time.perf_counter()
        compile_many(jobs, executor="serial")
        serial_s = time.perf_counter() - t0
        clear_caches()
        t0 = time.perf_counter()
        report = compile_many(jobs, workers=4, executor="process")
        parallel_s = time.perf_counter() - t0
        assert not report.failures
        assert serial_s / parallel_s >= 2.0


class TestTimeout:
    def test_timeout_surfaces_as_job_failure(self):
        if not hasattr(__import__("signal"), "SIGALRM"):
            pytest.skip("needs SIGALRM")
        # A 48-qubit hybrid compile takes far longer than 1 ms.
        job = BatchJob(arch="heavyhex", n_qubits=48, density=0.5)
        result = execute_job(job, timeout_s=0.001)
        assert not result.ok
        assert result.error_type == "JobTimeoutError"

    def test_late_disarm_cannot_leak_a_one_ms_alarm(self, monkeypatch):
        # A re-fire landing in __exit__ before it sets ``disarming`` once
        # raised past the disarm: the 1 ms timer stayed armed, its next
        # tick escaped execute_job's failure path, and the previous
        # handler was never restored.  A 5 ms stall ahead of the disarm
        # makes that window certain.
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("needs SIGALRM")
        from repro.batch import engine

        real_exit = engine._deadline.__exit__

        def stalled_exit(self, *exc):
            until = time.perf_counter() + 0.005
            while time.perf_counter() < until:
                pass
            return real_exit(self, *exc)

        monkeypatch.setattr(engine._deadline, "__exit__", stalled_exit)
        previous = signal.getsignal(signal.SIGALRM)
        job = BatchJob(arch="heavyhex", n_qubits=48, density=0.5)
        result = execute_job(job, timeout_s=0.001)
        assert not result.ok
        assert result.error_type == "JobTimeoutError"
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous

    def test_swallowed_alarm_still_times_out(self):
        # A raise delivered inside a GC callback is swallowed; if the job
        # then finishes before the 50 ms re-fire, leaving the deadline
        # must still report the timeout instead of a success.
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("needs SIGALRM")
        from repro.batch.engine import _deadline
        from repro.exceptions import JobTimeoutError

        with pytest.raises(JobTimeoutError):
            with _deadline(0.001):
                until = time.perf_counter() + 0.02
                while time.perf_counter() < until:
                    try:
                        time.sleep(0.0005)
                    except JobTimeoutError:
                        pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_one_ms_timeout_never_escapes_in_a_loop(self):
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("needs SIGALRM")
        previous = signal.getsignal(signal.SIGALRM)
        job = BatchJob(arch="heavyhex", n_qubits=48, density=0.5)
        for _ in range(400):
            result = execute_job(job, timeout_s=0.001)
            assert result.error_type == "JobTimeoutError"
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous

    def test_generous_timeout_does_not_fire(self):
        job = BatchJob(arch="line", n_qubits=6)
        result = execute_job(job, timeout_s=60.0)
        assert result.ok

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="needs SIGALRM in pool workers")
    def test_one_ms_budget_fires_on_process_pools(self):
        # Both pooled paths: compile_many's fan-out and a PersistentPool.
        jobs = [BatchJob(arch="heavyhex", n_qubits=48, density=0.5,
                         seed=seed) for seed in (0, 1)]
        report = compile_many(jobs, workers=2, timeout_s=0.001)
        assert report.executor == "process"
        assert [r.error_type for r in report.results] \
            == ["JobTimeoutError", "JobTimeoutError"]
        with PersistentPool(workers=1, timeout_s=0.001) as pool:
            result = pool.submit(jobs[0]).result()
        assert result.error_type == "JobTimeoutError"

    def test_thread_executors_refuse_a_timeout_up_front(self, tmp_path):
        jobs = [BatchJob(arch="line", n_qubits=4, seed=seed)
                for seed in (0, 1)]
        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(SpecificationError, match="thread workers"):
            compile_many(jobs, workers=2, executor="thread", timeout_s=5.0,
                         journal=journal)
        assert not journal.exists()  # refused before any work
        with pytest.raises(SpecificationError, match="thread workers"):
            PersistentPool(workers=1, executor="thread", timeout_s=5.0)

    def test_serve_refuses_a_thread_timeout_with_exit_2(self, capsys):
        from repro.cli import main

        assert main(["serve", "--stdio", "--no-store", "--executor",
                     "thread", "--timeout", "1"]) == 2
        assert "thread workers" in capsys.readouterr().err

    def test_deadline_off_the_main_thread_raises_instead_of_running(self):
        job = BatchJob(arch="line", n_qubits=4)
        results = []
        worker = threading.Thread(
            target=lambda: results.append(execute_job(job, timeout_s=5.0)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert not results[0].ok
        assert results[0].error_type == "SpecificationError"
        assert "main thread" in results[0].error


class TestPersistentPool:
    def test_concurrent_submitters_lose_no_update(self):
        # More submitting threads than cores, with a short switch
        # interval, against more workers than cores.
        job = BatchJob(arch="line", n_qubits=4, method="greedy")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with PersistentPool(workers=4, executor="thread") as pool:
                futures = []

                def submit_five():
                    futures.extend(pool.submit(job) for _ in range(5))

                threads = [threading.Thread(target=submit_five)
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert pool.submitted == 40
        assert len(results) == 40 and all(r.ok for r in results)
        assert pool.restarts == 0

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the fault plan reaches workers through fork")
    def test_a_breakage_quarantines_at_most_workers_jobs_at_once(
            self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.batch import pool as pool_module
        from repro.resilience.faults import FaultPlan, FaultSpec, active_plan

        lock = threading.Lock()
        private = {"live": 0, "peak": 0, "built": 0}

        class CountingExecutor(ProcessPoolExecutor):
            """Tracks how many one-worker (quarantine) pools are alive."""

            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                self.private = max_workers == 1
                if self.private:
                    with lock:
                        private["built"] += 1
                        private["live"] += 1
                        private["peak"] = max(private["peak"],
                                              private["live"])

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait=wait, **kwargs)
                if self.private and wait:
                    self.private = False
                    with lock:
                        private["live"] -= 1

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor",
                            CountingExecutor)
        jobs = [BatchJob(arch="grid", n_qubits=16, seed=seed)
                for seed in range(10)]
        # times=99: fork re-arms the kill in every fresh worker, so the
        # poison job kills its private worker too.
        plan = FaultPlan([FaultSpec(site="batch.job", action="kill",
                                    match=jobs[0].name, times=99)])
        with PersistentPool(workers=2, executor="process") as pool:
            with active_plan(plan):
                futures = [pool.submit(job, max_restarts=1) for job in jobs]
                results = [future.result(timeout=120) for future in futures]
            # A long-lived pool sheds what the breakage left behind
            # without waiting for close().
            for drainer in list(pool._drainers):
                drainer.join(timeout=60)
            assert not pool._drainers and not pool._retired
        assert [r.ok for r in results] == [False] + [True] * 9
        assert "restart budget (1) is spent" in results[0].error
        assert pool.restarts == 1
        # More jobs were broken than there are workers, yet never more
        # than ``workers`` private pools ran at once.
        assert private["built"] > pool.workers
        assert private["peak"] <= pool.workers
        assert private["live"] == 0


class TestHelpers:
    def test_jobs_for_cartesian_product(self):
        jobs = jobs_for(["grid", "line"], 9, methods=("hybrid", "ata"),
                        seeds=(0, 1, 2))
        assert len(jobs) == 2 * 2 * 3
        assert len({job.name for job in jobs}) == len(jobs)

    def test_default_workers_bounded(self):
        assert default_workers(0) == 1
        assert 1 <= default_workers(100) <= (os.cpu_count() or 1)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            compile_many([], executor="gpu")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            compile_many([BatchJob(arch="line", n_qubits=4)], workers=-1)
