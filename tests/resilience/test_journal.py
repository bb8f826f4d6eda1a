"""Unit tests for the crash-safe batch journal."""

import json

import pytest

from repro.batch import BatchJob, JobResult, jobs_for
from repro.resilience.journal import (JOURNAL_VERSION, BatchJournal,
                                      JournalError, job_fingerprint)


def _jobs(n=3):
    return jobs_for(["line"], 6, methods=("greedy",),
                    seeds=tuple(range(n)))


def _result(job, depth=7):
    return JobResult(job=job, ok=True, wall_time_s=0.25,
                     record={"depth": depth, "cx": 9, "swaps": 1,
                             "extra": {"greedy_cycles": 4}},
                     cache={"distance_matrix": {"hits": 1, "misses": 0}},
                     attempts=[{"attempt": 1, "error_type": "TransientError",
                                "error": "blip", "transient": True,
                                "retried": True, "backoff_s": 0.05}])


class TestJobResultRoundTrip:
    def test_to_json_from_json_is_lossless(self):
        job = _jobs(1)[0]
        original = _result(job)
        rebuilt = JobResult.from_json(job, json.loads(
            json.dumps(original.to_json())))
        assert rebuilt == original
        assert rebuilt.retries == 1

    def test_failure_round_trip(self):
        job = _jobs(1)[0]
        original = JobResult(job=job, ok=False, error="boom",
                             error_type="TransientError")
        assert JobResult.from_json(job, original.to_json()) == original


class TestFingerprint:
    def test_sensitive_to_specs_and_order(self):
        jobs = _jobs(3)
        assert job_fingerprint(jobs) == job_fingerprint(list(jobs))
        assert job_fingerprint(jobs) != job_fingerprint(jobs[::-1])
        changed = [*jobs[:-1],
                   BatchJob(arch="line", n_qubits=6, method="greedy",
                            seed=99)]
        assert job_fingerprint(jobs) != job_fingerprint(changed)


class TestBatchJournal:
    def test_fresh_journal_writes_header(self, tmp_path):
        jobs = _jobs()
        path = tmp_path / "sweep.jsonl"
        with BatchJournal(path, jobs) as journal:
            journal.record(0, _result(jobs[0]))
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        assert lines[0] == {"kind": "header", "version": JOURNAL_VERSION,
                            "fingerprint": job_fingerprint(jobs),
                            "n_jobs": 3}
        assert lines[1]["kind"] == "result"
        assert lines[1]["index"] == 0
        assert lines[1]["job"] == jobs[0].name

    def test_resume_recovers_completed_results(self, tmp_path):
        jobs = _jobs()
        path = tmp_path / "sweep.jsonl"
        with BatchJournal(path, jobs) as journal:
            journal.record(0, _result(jobs[0], depth=5))
            journal.record(2, _result(jobs[2], depth=8))
        resumed = BatchJournal(path, jobs, resume=True)
        try:
            assert sorted(resumed.completed) == [0, 2]
            assert resumed.completed[0] == _result(jobs[0], depth=5)
            assert resumed.completed[2].record["depth"] == 8
        finally:
            resumed.close()

    def test_without_resume_truncates(self, tmp_path):
        jobs = _jobs()
        path = tmp_path / "sweep.jsonl"
        with BatchJournal(path, jobs) as journal:
            journal.record(0, _result(jobs[0]))
        with BatchJournal(path, jobs) as journal:
            assert journal.completed == {}
        assert len(path.read_text().splitlines()) == 1  # header only

    def test_truncated_tail_is_discarded(self, tmp_path):
        jobs = _jobs()
        path = tmp_path / "sweep.jsonl"
        with BatchJournal(path, jobs) as journal:
            journal.record(0, _result(jobs[0]))
            journal.record(1, _result(jobs[1]))
        # Simulate a crash mid-append: chop the last line in half.
        content = path.read_text()
        path.write_text(content[:len(content) - 40])
        resumed = BatchJournal(path, jobs, resume=True)
        try:
            assert sorted(resumed.completed) == [0]
        finally:
            resumed.close()

    def test_duplicate_index_keeps_last(self, tmp_path):
        jobs = _jobs()
        path = tmp_path / "sweep.jsonl"
        with BatchJournal(path, jobs) as journal:
            journal.record(1, _result(jobs[1], depth=4))
            journal.record(1, _result(jobs[1], depth=6))
        resumed = BatchJournal(path, jobs, resume=True)
        try:
            assert resumed.completed[1].record["depth"] == 6
        finally:
            resumed.close()

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        BatchJournal(path, _jobs(3)).close()
        with pytest.raises(JournalError, match="different job list"):
            BatchJournal(path, _jobs(4), resume=True)

    def test_missing_header_refuses_resume(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"kind": "result", "index": 0}\n')
        with pytest.raises(JournalError, match="missing header"):
            BatchJournal(path, _jobs(), resume=True)

    def test_version_mismatch_refuses_resume(self, tmp_path):
        jobs = _jobs()
        path = tmp_path / "sweep.jsonl"
        path.write_text(json.dumps(
            {"kind": "header", "version": 999,
             "fingerprint": job_fingerprint(jobs), "n_jobs": 3}) + "\n")
        with pytest.raises(JournalError, match="version"):
            BatchJournal(path, jobs, resume=True)

    def test_resume_on_missing_file_starts_fresh(self, tmp_path):
        jobs = _jobs()
        path = tmp_path / "absent.jsonl"
        with BatchJournal(path, jobs, resume=True) as journal:
            assert journal.completed == {}
        assert json.loads(
            path.read_text().splitlines()[0])["kind"] == "header"

    def test_out_of_range_or_malformed_entries_are_skipped(self, tmp_path):
        jobs = _jobs()
        path = tmp_path / "sweep.jsonl"
        with BatchJournal(path, jobs) as journal:
            journal._append({"kind": "result", "index": 99,
                             "result": {"ok": True}})
            journal._append({"kind": "result", "index": "x",
                             "result": {"ok": True}})
            journal._append({"kind": "note", "text": "ignored"})
            journal.record(0, _result(jobs[0]))
        resumed = BatchJournal(path, jobs, resume=True)
        try:
            assert sorted(resumed.completed) == [0]
        finally:
            resumed.close()
