"""Unit tests for retry policies and the backoff schedule."""

import pytest

from repro.exceptions import (JobTimeoutError, ResourceExhaustedError,
                              TransientError, ValidationError)
from repro.resilience.retry import (NO_RETRY, RetryPolicy, call_with_retry,
                                    execute_with_retry)


class TestClassification:
    def test_transient_subclasses_are_retryable(self):
        policy = RetryPolicy()
        assert policy.is_transient(TransientError("x"))

    def test_permanent_errors_are_not(self):
        policy = RetryPolicy()
        assert not policy.is_transient(ValueError("x"))
        assert not policy.is_transient(ValidationError("x"))
        # Budget exhaustion is NOT transient: retrying identical work
        # exhausts the same budget (it degrades instead — see
        # repro.pipeline.solver).
        assert not policy.is_transient(ResourceExhaustedError("x"))

    def test_timeouts_opt_in(self):
        assert not RetryPolicy().is_transient(JobTimeoutError("x"))
        assert RetryPolicy(retry_timeouts=True).is_transient(
            JobTimeoutError("x"))

    def test_retry_on_matches_mro_names(self):
        policy = RetryPolicy(retry_on=("OSError",))
        assert policy.is_transient(ConnectionError("x"))  # OSError subclass
        assert not policy.is_transient(ValueError("x"))

    def test_never_retry_wins_over_everything(self):
        policy = RetryPolicy(never_retry=("TransientError",))
        assert not policy.is_transient(TransientError("x"))
        assert not policy.is_transient(ResourceExhaustedError("x"))

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)


class TestBackoffSchedule:
    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0,
                             max_delay_s=3.0, jitter=0.0)
        assert policy.delay_s(1) == 1.0
        assert policy.delay_s(2) == 2.0
        assert policy.delay_s(3) == 3.0  # capped, not 4.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.25)
        first = policy.delay_s(1, key="grid/rand-24/hybrid")
        assert first == policy.delay_s(1, key="grid/rand-24/hybrid")
        assert 0.75 <= first <= 1.25
        # Different keys de-synchronize.
        assert first != policy.delay_s(1, key="another-job")

    def test_policy_is_picklable(self):
        import pickle

        policy = RetryPolicy(retry_on=("OSError",), never_retry=("Boom",))
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestExecuteWithRetry:
    def test_recovers_after_transient_failures(self):
        calls = []
        slept = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("blip")
            return "done"

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.01, jitter=0.1)
        outcome = execute_with_retry(flaky, policy, key="job-1",
                                     sleep=slept.append)
        assert outcome.ok and outcome.value == "done"
        assert len(outcome.attempts) == 2
        assert all(a["retried"] and a["transient"]
                   for a in outcome.attempts)
        # The recorded schedule is exactly the policy's deterministic one.
        assert slept == [policy.delay_s(1, "job-1"),
                         policy.delay_s(2, "job-1")]
        assert [a["backoff_s"] for a in outcome.attempts] == slept
        assert len(calls) == 3
        assert outcome.retries == 2

    def test_exhausts_the_attempt_budget(self):
        def always_fails():
            raise TransientError("never works")

        outcome = execute_with_retry(
            always_fails, RetryPolicy(max_attempts=3, base_delay_s=0.0),
            sleep=lambda _: None)
        assert not outcome.ok
        assert isinstance(outcome.error, TransientError)
        assert len(outcome.attempts) == 3
        assert outcome.retries == 2
        assert outcome.attempts[-1]["transient"] is True
        assert "retried" not in outcome.attempts[-1]

    def test_permanent_failure_fails_fast(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("wrong spec")

        outcome = execute_with_retry(broken, RetryPolicy(max_attempts=5))
        assert not outcome.ok and len(calls) == 1
        assert outcome.attempts[0]["transient"] is False
        assert outcome.retries == 0

    def test_no_retry_policy_is_single_shot(self):
        calls = []

        def flaky():
            calls.append(1)
            raise TransientError("blip")

        outcome = execute_with_retry(flaky, NO_RETRY)
        assert not outcome.ok and len(calls) == 1

    def test_call_with_retry_reraises(self):
        with pytest.raises(ValidationError):
            call_with_retry(lambda: (_ for _ in ()).throw(
                ValidationError("bad")), RetryPolicy())
        assert call_with_retry(lambda: 42, RetryPolicy()) == 42
