"""The shared backoff schedule: geometric growth, seeded jitter bounds."""

import numpy as np
import pytest

from repro.errors import BackendLaunchError, ReproError
from repro.resilience import DEFAULT_JITTER, backoff_delay, retry_transient

pytestmark = pytest.mark.resilience


class TestBackoffDelay:
    def test_geometric_without_jitter(self):
        assert [backoff_delay(a, backoff=0.05) for a in range(4)] == \
            [0.05, 0.1, 0.2, 0.4]

    def test_jitter_stays_within_the_documented_band(self):
        rng = np.random.default_rng(42)
        for attempt in range(6):
            base = 0.05 * 2 ** attempt
            lo, hi = base * (1 - DEFAULT_JITTER), base * (1 + DEFAULT_JITTER)
            for _ in range(200):
                delay = backoff_delay(attempt, backoff=0.05,
                                      jitter=DEFAULT_JITTER, rng=rng)
                assert lo <= delay <= hi

    def test_jitter_is_deterministic_from_the_seed(self):
        a = [backoff_delay(i, jitter=0.25, rng=np.random.default_rng(7))
             for i in range(5)]
        b = [backoff_delay(i, jitter=0.25, rng=np.random.default_rng(7))
             for i in range(5)]
        assert a == b
        # and a different seed decorrelates the schedule
        c = [backoff_delay(i, jitter=0.25, rng=np.random.default_rng(8))
             for i in range(5)]
        assert a != c

    def test_jitter_requires_a_seeded_generator(self):
        with pytest.raises(ValueError, match="seeded"):
            backoff_delay(0, jitter=0.25)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="attempt"):
            backoff_delay(-1)
        with pytest.raises(ValueError, match="jitter"):
            backoff_delay(0, jitter=1.0, rng=np.random.default_rng(0))


class TestRetryTransient:
    def test_sleeps_follow_the_backoff_schedule(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 3:
                raise BackendLaunchError("transient")
            return "ok"

        out = retry_transient(flaky, retries=3, backoff=0.1,
                              sleep=sleeps.append)
        assert out == "ok"
        assert sleeps == [backoff_delay(a, backoff=0.1) for a in range(3)]

    def test_non_transient_errors_propagate_immediately(self):
        def fatal():
            raise ReproError("not transient")

        with pytest.raises(ReproError, match="not transient"):
            retry_transient(fatal, retries=5, sleep=lambda _: None)
