"""Property test: resuming from the result store equals an uninterrupted run.

For *any* crash point inside a sweep, resuming from the result store
must produce a report whose deterministic core (job identity, order,
ok-ness, compiled metrics, error classification) equals the
uninterrupted run's.  Hypothesis drives the crash index and the seed
window; the crash itself is an injected fault at the ``batch.collect``
site, which fires in the batch parent *after* the result was durably
stored — exactly where a real interruption is survivable.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import compile_many, jobs_for
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.faults import active_plan
from repro.serve.store import ResultStore
from tests.resilience.support import normalize_report

N_JOBS = 4


@settings(deadline=None, max_examples=10)
@given(crash_at=st.integers(min_value=0, max_value=N_JOBS - 1),
       seed_base=st.integers(min_value=0, max_value=5))
def test_resume_after_crash_matches_uninterrupted_run(crash_at, seed_base):
    jobs = jobs_for(["line"], 6, methods=("greedy",),
                    seeds=tuple(range(seed_base, seed_base + N_JOBS)))
    baseline = compile_many(jobs, executor="serial")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        plan = FaultPlan([FaultSpec(site="batch.collect", at=crash_at,
                                    error="runtime",
                                    message="injected crash")])
        with active_plan(plan):
            with pytest.raises(RuntimeError, match="injected crash"):
                compile_many(jobs, executor="serial",
                             store=ResultStore(root))

        resumed = compile_many(jobs, executor="serial",
                               store=ResultStore(root))

    # The crash fired after result #crash_at was stored.
    assert resumed.resumed_jobs == crash_at + 1
    assert len(resumed.results) == N_JOBS
    assert normalize_report(resumed.to_json()) \
        == normalize_report(baseline.to_json())
