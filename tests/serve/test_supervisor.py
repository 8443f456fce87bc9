"""Wave supervision units: bisection, retries, deadlines, breakers."""

import asyncio

import numpy as np
import pytest

from repro.errors import BackendLaunchError, ReproError
from repro.resilience import DEFAULT_JITTER, backoff_delay
from repro.serve import CircuitBreaker, LoadShedder, WaveSupervisor
from repro.serve.protocol import JobOptions, JobSpec

KEY = ("A100", "auto", (21,), "drop-contig")


def job(i, deadline=None):
    return JobSpec(job_id=f"j{i}", dat="", n_contigs=1,
                   options=JobOptions(k_schedule=(21,)),
                   fingerprint=f"fp{i}", deadline_s=deadline)


def ok_payloads(jobs):
    return [{"ok": True, "job": j.job_id} for j in jobs]


class TestSupervisor:
    def test_deadline_is_the_tightest_budget_aboard(self):
        sup = WaveSupervisor(None, default_deadline_s=60.0)
        assert sup.deadline_for([job(1), job(2)]) == 60.0
        assert sup.deadline_for([job(1, 5.0), job(2, 3.0), job(3)]) == 3.0

    def test_bisection_isolates_the_poison_job(self):
        calls = []

        async def execute(jobs):
            calls.append([j.job_id for j in jobs])
            if any(j.fingerprint == "fp2" for j in jobs):
                raise ValueError("poisoned wave")
            return ok_payloads(jobs)

        sup = WaveSupervisor(execute, retries=0, backoff_s=0.0)
        payloads = asyncio.run(sup.run(KEY, [job(i) for i in (1, 2, 3, 4)]))
        # co-tenants got exactly their own results, in submission order
        assert [p.get("job") for p in payloads] == ["j1", None, "j3", "j4"]
        failed = payloads[1]
        assert failed["ok"] is False and failed["supervised"] is True
        assert failed["error_type"] == "ValueError"
        assert calls[0] == ["j1", "j2", "j3", "j4"]  # full wave first
        assert sup.bisections == 2 and sup.jobs_failed == 1

    def test_transient_failures_retry_in_place(self):
        attempts = {"n": 0}

        async def execute(jobs):
            attempts["n"] += 1
            if attempts["n"] <= 2:
                raise BackendLaunchError("flaky launch")
            return ok_payloads(jobs)

        sup = WaveSupervisor(execute, retries=2, backoff_s=0.0)
        payloads = asyncio.run(sup.run(KEY, [job(1), job(2)]))
        assert all(p["ok"] for p in payloads)
        assert sup.transient_retries == 2 and sup.bisections == 0

    def test_transient_retries_sleep_on_the_jittered_schedule(
            self, monkeypatch):
        # a hot retry loop re-launches a failed wave in lockstep with
        # every other one: each retry waits its seeded backoff first
        sleeps = []
        real_sleep = asyncio.sleep

        async def recorded(delay, *args, **kwargs):
            sleeps.append(delay)
            await real_sleep(0)

        monkeypatch.setattr(asyncio, "sleep", recorded)
        attempts = {"n": 0}

        async def execute(jobs):
            attempts["n"] += 1
            if attempts["n"] <= 3:
                raise BackendLaunchError("flaky launch")
            return ok_payloads(jobs)

        sup = WaveSupervisor(execute, retries=3, backoff_s=0.2, seed=11)
        payloads = asyncio.run(sup.run(KEY, [job(1), job(2)]))
        assert all(p["ok"] for p in payloads)
        rng = np.random.default_rng(11)
        assert sleeps == [backoff_delay(a, backoff=0.2, jitter=DEFAULT_JITTER,
                                        rng=rng) for a in range(3)]

    def test_exhausted_transient_budget_falls_back_to_bisection(self):
        async def execute(jobs):
            if any(j.fingerprint == "fp2" for j in jobs):
                raise BackendLaunchError("always down")
            return ok_payloads(jobs)

        sup = WaveSupervisor(execute, retries=0, backoff_s=0.0)
        payloads = asyncio.run(sup.run(KEY, [job(1), job(2)]))
        assert payloads[0]["ok"] and not payloads[1]["ok"]
        assert "always down" in payloads[1]["error"]

    def test_blown_deadline_times_out_and_bisects(self):
        async def execute(jobs):
            if any(j.fingerprint == "fp2" for j in jobs):
                await asyncio.sleep(0.5)
            return ok_payloads(jobs)

        sup = WaveSupervisor(execute, retries=0, backoff_s=0.0)
        payloads = asyncio.run(
            sup.run(KEY, [job(1), job(2, deadline=0.05), job(3)]))
        assert payloads[0]["ok"] and payloads[2]["ok"]
        assert not payloads[1]["ok"]
        assert "deadline" in payloads[1]["error"]
        assert sup.waves_timed_out >= 1

    def test_open_breaker_degrades_key_to_solo_waves(self):
        t = {"now": 0.0}
        breaker = CircuitBreaker(threshold=1, cooldown_s=100.0,
                                 clock=lambda: t["now"])
        breaker.record_failure(KEY)  # threshold 1: straight to open
        calls = []

        async def execute(jobs):
            calls.append([j.job_id for j in jobs])
            return ok_payloads(jobs)

        sup = WaveSupervisor(execute, breaker=breaker)
        payloads = asyncio.run(sup.run(KEY, [job(1), job(2), job(3)]))
        assert all(p["ok"] for p in payloads)
        assert calls == [["j1"], ["j2"], ["j3"]]  # never fused
        assert sup.degraded_waves == 1

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ReproError, match="default_deadline_s"):
            WaveSupervisor(None, default_deadline_s=0.0)


class TestCircuitBreaker:
    def test_open_half_open_closed_cycle(self):
        t = {"now": 0.0}
        br = CircuitBreaker(threshold=2, cooldown_s=10.0,
                            clock=lambda: t["now"])
        assert br.allows_fusion(KEY) and br.state(KEY) == "closed"
        br.record_failure(KEY)
        assert br.state(KEY) == "closed"  # under threshold
        br.record_failure(KEY)
        assert br.state(KEY) == "open" and not br.allows_fusion(KEY)
        t["now"] = 10.0
        assert br.allows_fusion(KEY)  # cooldown elapsed: half-open probe
        assert br.state(KEY) == "half-open"
        br.record_failure(KEY)  # probe failed: reopen, cooldown restarts
        assert br.state(KEY) == "open"
        assert not br.allows_fusion(KEY)
        t["now"] = 20.0
        assert br.allows_fusion(KEY)
        br.record_success(KEY)  # probe succeeded
        assert br.state(KEY) == "closed" and br.allows_fusion(KEY)
        assert br.stats()["opened_total"] == 2

    def test_keys_are_independent(self):
        br = CircuitBreaker(threshold=1, cooldown_s=100.0, clock=lambda: 0.0)
        other = ("GPU", "auto", (33,), "drop-contig")
        br.record_failure(KEY)
        assert not br.allows_fusion(KEY)
        assert br.allows_fusion(other)
        assert br.open_keys() == 1

    def test_rejects_bad_threshold(self):
        with pytest.raises(ReproError, match="threshold"):
            CircuitBreaker(threshold=0)


class TestLoadShedder:
    def test_window_scale_shrinks_linearly_past_shed_start(self):
        shed = LoadShedder(max_in_flight=8)  # shed_start 0.5 -> depth 4
        assert shed.window_scale(0) == 1.0
        assert shed.window_scale(4) == 1.0
        assert shed.window_scale(6) == pytest.approx(0.5)
        assert shed.window_scale(8) == 0.0
        assert shed.window_scale(12) == 0.0  # clamped, never negative

    def test_admission_budget_halves_under_open_breakers(self):
        shed = LoadShedder(max_in_flight=8)
        assert shed.admission_budget(0) == 8
        assert shed.admission_budget(1) == 4
        assert LoadShedder(max_in_flight=1).admission_budget(3) == 1
