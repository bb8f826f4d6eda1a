"""Chaos suite: injected faults must be survived, deterministically.

Each test drives a *real* engine/pipeline/solver path with a
:class:`~repro.resilience.faults.FaultPlan` active and asserts the
recovery behavior the resilience layer promises: transient faults are
retried with backoff, killed workers restart the pool without poisoning
peers, solver exhaustion degrades to greedy with provenance, and a
sweep run with a result store resumes to the same report after a crash.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.batch import BatchJob, compile_many, execute_job
from repro.exceptions import SolverExhaustedError
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy, faults
from repro.resilience.faults import ENV_VAR, active_plan
from repro.serve.store import ResultStore
from tests.resilience.support import normalize_report, small_jobs

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestTransientRetry:
    def test_injected_transient_fault_recovers_on_retry(self):
        jobs = small_jobs(3)
        plan = FaultPlan([FaultSpec(site="batch.job", at=0)])
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.001)
        with active_plan(plan):
            report = compile_many(jobs, executor="serial", retry=policy)
        assert [r.ok for r in report.results] == [True, True, True]
        flaky = report.results[0]
        assert flaky.retries == 1
        assert flaky.attempts[0]["error_type"] == "TransientError"
        assert flaky.attempts[0]["retried"] is True
        assert flaky.attempts[0]["backoff_s"] == pytest.approx(
            policy.delay_s(1, jobs[0].name))
        assert report.retry_totals() == {
            "retries": 1, "retried_jobs": 1, "recovered_jobs": 1}
        assert "retries: 1 across 1 job(s), 1 recovered" \
            in report.summary()

    def test_without_a_policy_the_fault_fails_the_job(self):
        jobs = small_jobs(3)
        plan = FaultPlan([FaultSpec(site="batch.job", at=0)])
        with active_plan(plan):
            report = compile_many(jobs, executor="serial")
        assert [r.ok for r in report.results] == [False, True, True]
        assert report.results[0].error_type == "TransientError"
        assert report.results[0].attempts == []

    def test_attempt_budget_exhaustion_fails_structurally(self):
        jobs = small_jobs(1)
        plan = FaultPlan([FaultSpec(site="batch.job", times=99)])
        with active_plan(plan):
            report = compile_many(
                jobs, executor="serial",
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.0))
        (result,) = report.results
        assert not result.ok and len(result.attempts) == 2
        # Exhausted, not permanent: the last failure was still transient
        # and no retry followed it.
        assert result.attempts[-1]["transient"] is True
        assert "retried" not in result.attempts[-1]
        assert result.retries == 1

    def test_injected_timeout_is_not_retried_by_default(self):
        jobs = small_jobs(1)
        plan = FaultPlan([FaultSpec(site="batch.job", action="timeout")])
        with active_plan(plan):
            result = execute_job(jobs[0], retry=RetryPolicy(max_attempts=3))
        assert not result.ok
        assert result.error_type == "JobTimeoutError"
        assert len(result.attempts) == 1  # permanent under the policy
        with active_plan(FaultPlan(
                [FaultSpec(site="batch.job", action="timeout")])):
            result = execute_job(
                jobs[0], retry=RetryPolicy(max_attempts=3,
                                           retry_timeouts=True,
                                           base_delay_s=0.0))
        assert result.ok and result.retries == 1

    def test_pipeline_pass_fault_surfaces_per_job(self):
        jobs = small_jobs(2)
        plan = FaultPlan([FaultSpec(site="pipeline.pass", match="greedy",
                                    at=0)])
        with active_plan(plan):
            report = compile_many(jobs, executor="serial")
        assert [r.ok for r in report.results] == [False, True]


class TestPoolRestart:
    @pytest.mark.skipif(sys.platform == "win32",
                        reason="needs fork-based process pools")
    def test_killed_worker_restarts_pool_without_poisoning_peers(self):
        jobs = small_jobs(4)
        poison = jobs[2].name
        # times=99: the kill refires in every fresh worker (fork resets
        # the inherited hit counters), so the poison job converges to a
        # failure while every peer recovers.
        plan = FaultPlan([FaultSpec(site="batch.job", action="kill",
                                    match=poison, times=99)])
        with active_plan(plan):
            report = compile_many(jobs, workers=2, max_pool_restarts=1)
        assert [r.ok for r in report.results] == [True, True, False, True]
        broken = report.results[2]
        assert broken.error_type == "BrokenProcessPool"
        assert "restart budget (1) is spent" in broken.error
        assert report.pool_restarts == 1
        assert "restarted 1 time(s)" in report.summary()

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="needs fork-based process pools")
    def test_restart_budget_zero_fails_all_broken_without_retrying(self):
        jobs = small_jobs(2)
        plan = FaultPlan([FaultSpec(site="batch.job", action="kill",
                                    match=jobs[0].name, times=99)])
        with active_plan(plan):
            report = compile_many(jobs, workers=2, max_pool_restarts=0)
        assert report.pool_restarts == 0
        assert not report.results[0].ok
        assert "restart budget (0) is spent" in report.results[0].error
        # The peer's fate is timing-dependent with budget 0 (it may have
        # been in flight when the pool broke); only the poison job's
        # failure and the absence of restarts are guaranteed.


class TestSolverDegradation:
    def test_exhausted_budget_degrades_to_greedy_with_provenance(self):
        from repro.arch import architecture_for
        from repro.pipeline.registry import get_method
        from repro.problems import random_problem_graph

        coupling = architecture_for("line", 6)
        problem = random_problem_graph(6, 0.5, seed=0)
        result = get_method("optimal").compile(coupling, problem,
                                               max_nodes=2)
        degraded = result.extra["degraded"]
        assert degraded["method"] == "optimal"
        assert degraded["fallback"] == "greedy"
        assert degraded["error_type"] == "SolverExhaustedError"
        assert "node budget" in degraded["reason"]
        result.validate(coupling, problem)  # the circuit is still real
        assert "solver" not in result.extra  # no fake optimality stats

    def test_fallback_none_preserves_the_hard_error(self):
        from repro.arch import architecture_for
        from repro.pipeline.registry import get_method
        from repro.problems import random_problem_graph

        with pytest.raises(SolverExhaustedError, match="node budget"):
            get_method("optimal").compile(
                architecture_for("line", 6),
                random_problem_graph(6, 0.5, seed=0),
                max_nodes=2, fallback=None)

    def test_unknown_fallback_is_rejected(self):
        from repro.arch import architecture_for
        from repro.pipeline.registry import get_method
        from repro.problems import random_problem_graph

        with pytest.raises(ValueError, match="unknown solver fallback"):
            get_method("optimal").compile(
                architecture_for("line", 6),
                random_problem_graph(6, 0.5, seed=0),
                max_nodes=2, fallback="quantum-annealing")

    def test_degraded_job_in_a_batch_report(self):
        job = BatchJob(arch="line", n_qubits=6, seed=0, method="optimal",
                       options=(("max_nodes", 2),))
        report = compile_many([job], executor="serial")
        (result,) = report.results
        assert result.ok and result.degraded
        assert report.degraded_jobs == 1
        assert report.to_json()["degraded_jobs"] == 1
        assert "degraded: 1 job(s)" in report.summary()

    def test_injected_exhaustion_mid_search_also_degrades(self):
        from repro.arch import architecture_for
        from repro.pipeline.registry import get_method
        from repro.problems import random_problem_graph

        plan = FaultPlan([FaultSpec(site="solver.expand",
                                    error="solver_exhausted", at=2)])
        with active_plan(plan):
            result = get_method("optimal").compile(
                architecture_for("line", 6),
                random_problem_graph(6, 0.5, seed=0))
        assert result.extra["degraded"]["fallback"] == "greedy"


class TestStoreResume:
    def test_in_process_crash_and_resume_reproduce_the_report(self,
                                                              tmp_path):
        jobs = small_jobs(4)
        root = tmp_path / "store"

        baseline = compile_many(jobs, executor="serial")

        # Crash the parent after the second result is stored.
        plan = FaultPlan([FaultSpec(site="batch.collect", at=1,
                                    error="runtime",
                                    message="simulated parent crash")])
        with active_plan(plan):
            with pytest.raises(RuntimeError, match="simulated parent"):
                compile_many(jobs, executor="serial",
                             store=ResultStore(root))
        assert ResultStore(root).count_entries() == 2

        resumed = compile_many(jobs, executor="serial",
                               store=ResultStore(root))
        assert resumed.resumed_jobs == 2
        assert "resumed: 2 job(s)" in resumed.summary()
        assert normalize_report(resumed.to_json()) \
            == normalize_report(baseline.to_json())

    def test_resume_with_nothing_pending_is_a_no_op_run(self, tmp_path):
        jobs = small_jobs(2)
        store = ResultStore(tmp_path / "store")
        first = compile_many(jobs, executor="serial", store=store)
        resumed = compile_many(jobs, executor="serial", store=store)
        assert resumed.resumed_jobs == 2
        assert normalize_report(resumed.to_json()) \
            == normalize_report(first.to_json())

    def test_failed_jobs_are_recompiled_on_resume(self, tmp_path):
        jobs = small_jobs(3)
        store = ResultStore(tmp_path / "store")
        plan = FaultPlan([FaultSpec(site="batch.job", at=1)])
        with active_plan(plan):
            first = compile_many(jobs, executor="serial", store=store)
        assert [r.ok for r in first.results] == [True, False, True]
        assert store.count_entries() == 2

        resumed = compile_many(jobs, executor="serial", store=store)
        assert resumed.resumed_jobs == 2
        assert [r.ok for r in resumed.results] == [True, True, True]
        assert store.count_entries() == 3


class TestCliChaos:
    """End-to-end: a killed CLI sweep resumes to the uninterrupted report."""

    CMD = ["batch", "--arch", "line", "--qubits", "6", "--count", "4",
           "--method", "greedy", "--serial"]

    def _run(self, tmp_path, name, fault_env=None, store=None,
             cmd=CMD):
        out = tmp_path / f"{name}.json"
        store = store or tmp_path / f"{name}-store"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop(ENV_VAR, None)
        if fault_env is not None:
            env[ENV_VAR] = fault_env
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *cmd, "--json", str(out),
             "--store", str(store)],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=120)
        return proc, out, store

    def test_killed_sweep_resumes_to_the_uninterrupted_report(self,
                                                              tmp_path):
        proc, baseline_json, _ = self._run(tmp_path, "baseline")
        assert proc.returncode == 0, proc.stderr

        kill_after_two = FaultPlan([FaultSpec(
            site="batch.collect", action="kill", at=1,
            exit_code=77)]).to_env()
        proc, crashed_json, store = self._run(
            tmp_path, "crashed", fault_env=kill_after_two)
        assert proc.returncode == 77  # died mid-sweep, no report written
        assert not crashed_json.exists()
        assert ResultStore(store).count_entries() == 2

        # Re-run the same sweep on the crashed store, with no faults.
        proc, out, _ = self._run(tmp_path, "crashed", store=store)
        assert proc.returncode == 0, proc.stderr
        assert "resumed: 2 job(s)" in proc.stdout

        resumed = json.loads(out.read_text())
        baseline = json.loads(baseline_json.read_text())
        assert resumed["resumed_jobs"] == 2
        assert normalize_report(resumed) == normalize_report(baseline)

    def test_overlapping_sweep_reuses_the_shared_jobs(self, tmp_path):
        proc, _, store = self._run(tmp_path, "first")
        assert proc.returncode == 0, proc.stderr
        # Seeds 0..4 over a store holding seeds 0..3: each entry is keyed
        # by its own spec, so exactly the four shared jobs are reused.
        wider = [*self.CMD, "--count", "5"]
        proc, out, _ = self._run(tmp_path, "wider", store=store, cmd=wider)
        assert proc.returncode == 0, proc.stderr
        proc, fresh_out, _ = self._run(tmp_path, "fresh", cmd=wider)
        assert proc.returncode == 0, proc.stderr
        resumed = json.loads(out.read_text())
        fresh = json.loads(fresh_out.read_text())
        assert (resumed["resumed_jobs"], fresh["resumed_jobs"]) == (4, 0)
        assert normalize_report(resumed) == normalize_report(fresh)

    def test_malformed_fault_plan_exits_2_before_any_work(self, tmp_path):
        # A typo'd chaos plan must abort the sweep as a config error,
        # not degrade into per-job ValueError failures.
        proc, out, store = self._run(
            tmp_path, "badplan", fault_env='[{"site": "batch.job"}]')
        assert proc.returncode == 2
        assert ENV_VAR in proc.stderr
        assert not out.exists()
        assert ResultStore(store).count_entries() == 0

    def test_malformed_fault_plan_aborts_compile_many(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "not json")
        faults.reset()
        with pytest.raises(ValueError, match=ENV_VAR):
            compile_many(small_jobs(2), executor="serial")


class TestReportSchema:
    def test_to_json_is_versioned_and_json_round_trips(self):
        report = compile_many(small_jobs(2), executor="serial")
        payload = report.to_json()
        assert payload["schema_version"] == 4
        for key in ("pool_restarts", "resumed_jobs", "retry_totals",
                    "degraded_jobs"):
            assert key in payload
        assert payload["retry_totals"] == {
            "retries": 0, "retried_jobs": 0, "recovered_jobs": 0}
        assert json.loads(json.dumps(payload)) == payload
