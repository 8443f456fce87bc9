"""Seeded chaos suite: the service under planned faults, byte-for-byte.

The in-process scenario drives a 32-job run through a fault plan (a
wave stall holding the lane, worker crashes in the burst queued behind
it, checkpoint corruption) and asserts every job completes with results
byte-identical to an undisturbed run — the record/replay parity
invariant makes bisection re-runs exact, so chaos must not be
observable in the payloads. The subprocess scenarios kill
the real ``repro serve`` process (SIGKILL, then SIGTERM) and assert the
journal's promises: no acknowledged job is lost, and a graceful drain
finishes its work before exiting.
"""

import asyncio
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ReproError
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.serve import AssemblyService, JobJournal
from repro.serve.protocol import JobOptions, job_fingerprint

from .test_service import make_dat, poll_done, request

pytestmark = pytest.mark.chaos

N_JOBS = 32
K_SCHEDULE = [21]


def stall_plan(delay_s: float) -> str:
    """A serve ``--fault-plan`` document: the first wave hangs, its lane
    held, for ``delay_s``."""
    return json.dumps({"faults": [{"kind": "wave-stall",
                                   "delay_s": delay_s}]})


def submit_all(port, dats):
    async def one(dat):
        status, body = await request(port, "POST", "/v1/jobs",
                                     {"dat": dat, "k_schedule": K_SCHEDULE})
        assert status == 202, body
        return body["job_id"]
    return asyncio.gather(*[one(dat) for dat in dats])


async def results_for(port, job_ids):
    payloads = []
    for job_id in job_ids:
        body = await poll_done(port, job_id, timeout=60.0)
        assert body["status"] == "done", body
        _, payload = await request(port, "GET", f"/v1/jobs/{job_id}/result")
        payloads.append(payload)
    return payloads


class TestChaosPlan:
    def test_32_job_run_is_byte_identical_under_faults(self, tmp_path):
        dats = [make_dat(n_contigs=1, seed=100 + i) for i in range(N_JOBS)]
        fingerprints = [job_fingerprint(
            dat, JobOptions(k_schedule=tuple(K_SCHEDULE))) for dat in dats]
        # the first job's wave stalls with the lane held, so the other 31
        # queue behind it as one wave; the crashes are scoped to a job of
        # that wave and bisect it down
        plan = FaultPlan(seed=7, faults=(
            FaultSpec(FaultKind.WORKER_CRASH, times=3,
                      fingerprint=fingerprints[5]),
            FaultSpec(FaultKind.WAVE_STALL, delay_s=0.3,
                      fingerprint=fingerprints[0]),
            FaultSpec(FaultKind.CHECKPOINT_CORRUPTION,
                      fingerprint=fingerprints[0]),
        ))

        async def run(service):
            port = await service.start()
            try:
                ids = await submit_all(port, dats[:1])
                ids += await submit_all(port, dats[1:])
                return await results_for(port, ids)
            finally:
                await service.stop()

        baseline = asyncio.run(run(AssemblyService(max_in_flight=64)))

        chaos_service = AssemblyService(
            max_in_flight=64, checkpoint_dir=str(tmp_path), fault_plan=plan)
        disturbed = asyncio.run(run(chaos_service))

        # every planned fault actually fired
        assert chaos_service.supervisor.injector.counts() == {
            "worker-crash": 3, "wave-stall": 1, "checkpoint-corruption": 1}
        sup = chaos_service.supervisor.stats()
        assert sup["waves_crashed"] == 3
        assert sup["bisections"] >= 3
        assert sup["jobs_failed"] == 0  # chaos never cost a job
        # and none of it is observable in the results: byte-identical
        for clean, noisy in zip(baseline, disturbed):
            assert json.dumps(clean, sort_keys=True) == \
                json.dumps(noisy, sort_keys=True)

    def test_corrupt_checkpoint_quarantined_then_recomputed(self, tmp_path):
        dat = make_dat(n_contigs=1, seed=3)
        fp = job_fingerprint(dat, JobOptions(k_schedule=tuple(K_SCHEDULE)))
        plan = FaultPlan(faults=(
            FaultSpec(FaultKind.CHECKPOINT_CORRUPTION, fingerprint=fp),
            FaultSpec(FaultKind.SLOW_DISK, fingerprint=fp, delay_s=0.05),
        ))

        async def scenario():
            service = AssemblyService(checkpoint_dir=str(tmp_path),
                                      fault_plan=plan)
            port = await service.start()
            try:
                body = {"dat": dat, "k_schedule": K_SCHEDULE}
                # first run: slow-disk delays the save, corruption then
                # damages the file on disk after the atomic write
                _, first = await request(port, "POST", "/v1/jobs", body)
                await poll_done(port, first["job_id"])
                _, r1 = await request(
                    port, "GET", f"/v1/jobs/{first['job_id']}/result")
                # resubmission: the corrupt checkpoint is quarantined and
                # the job recomputes instead of resuming
                _, second = await request(port, "POST", "/v1/jobs", body)
                done = await poll_done(port, second["job_id"])
                _, r2 = await request(
                    port, "GET", f"/v1/jobs/{second['job_id']}/result")
                # third time: the recompute re-checkpointed cleanly
                _, third = await request(port, "POST", "/v1/jobs", body)
                _, stats = await request(port, "GET", "/v1/stats")
                return done, r1, r2, third, stats
            finally:
                await service.stop()

        done, r1, r2, third, stats = asyncio.run(scenario())
        assert done.get("resumed") is None  # recomputed, not resumed
        assert stats["checkpoints"]["quarantined"] == 1
        assert third.get("resumed") is True
        # the recompute is byte-identical, profile counters included:
        # the worker keeps no prepare cache warm between the two runs
        assert r1 == r2

    def test_launch_failure_is_retried_in_place(self):
        """A fingerprint-scoped launch-failure fires once, at its job's
        wave, as a transient error: the wave retries after a backoff,
        nothing is bisected, and the result is the undisturbed one."""
        dat = make_dat(n_contigs=1, seed=11)
        fp = job_fingerprint(dat, JobOptions(k_schedule=tuple(K_SCHEDULE)))
        plan = FaultPlan(faults=(
            FaultSpec(FaultKind.LAUNCH_FAILURE, fingerprint=fp),))

        async def run(service):
            port = await service.start()
            try:
                return await results_for(port, await submit_all(port, [dat]))
            finally:
                await service.stop()

        baseline = asyncio.run(run(AssemblyService()))
        service = AssemblyService(fault_plan=plan)
        disturbed = asyncio.run(run(service))
        assert service.supervisor.injector.counts() == {"launch-failure": 1}
        sup = service.supervisor.stats()
        assert (sup["transient_retries"], sup["bisections"],
                sup["jobs_failed"]) == (1, 0, 0)
        assert disturbed == baseline

    @pytest.mark.parametrize("spec", [
        FaultSpec(FaultKind.TABLE_PRESSURE),
        FaultSpec(FaultKind.READ_CORRUPTION),
        FaultSpec(FaultKind.DEGENERATE_PROFILE),
        FaultSpec(FaultKind.SUITE_CRASH),
        FaultSpec(FaultKind.LAUNCH_FAILURE, launch=0),
    ], ids=["table-pressure", "read-corruption", "degenerate-profile",
            "suite-crash", "launch-scoped"])
    def test_unfireable_plan_rejected_at_start(self, spec):
        """A spec the service can never fire is refused when the service
        is built, not accepted and silently dropped."""
        with pytest.raises(ReproError, match="never fires in the service"):
            AssemblyService(fault_plan=FaultPlan(faults=(spec,)))


# ----------------------------------------------------------------------
# subprocess scenarios: the real process, the real signals


def http_request(port, method, path, payload=None, timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


def http_poll_done(port, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        _, body = http_request(port, "GET", f"/v1/jobs/{job_id}")
        if body.get("status") in ("done", "failed"):
            return body
        if time.monotonic() > deadline:
            raise AssertionError(f"job {job_id} never finished: {body}")
        time.sleep(0.05)


def start_serve(*extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    line = proc.stdout.readline()
    match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
    if match is None:
        proc.kill()
        raise AssertionError(
            f"serve never bound: {line!r}\n{proc.stdout.read()}")
    return proc, int(match.group(1))


class TestKillMinusNine:
    def test_recover_loses_no_acknowledged_job(self, tmp_path):
        journal = str(tmp_path / "jobs.wal")
        ckpt = str(tmp_path / "ckpt")
        dats = [make_dat(n_contigs=1, seed=s) for s in (1, 2, 3)]
        # the first wave stalls past the kill: it never finishes, and the
        # jobs behind its busy lane are never dispatched
        plan = tmp_path / "stall.json"
        plan.write_text(stall_plan(60.0))
        proc, port = start_serve("--journal", journal,
                                 "--checkpoint-dir", ckpt,
                                 "--fault-plan", str(plan))
        try:
            ids = []
            for dat in dats:
                status, body = http_request(
                    port, "POST", "/v1/jobs",
                    {"dat": dat, "k_schedule": K_SCHEDULE})
                assert status == 202, body
                ids.append(body["job_id"])
        finally:
            proc.kill()  # SIGKILL: no drain, no shutdown record
            proc.wait(timeout=30)

        proc, port = start_serve("--journal", journal,
                                 "--checkpoint-dir", ckpt,
                                 "--recover")
        try:
            for job_id, dat in zip(ids, dats):
                body = http_poll_done(port, job_id)
                assert body["status"] == "done", body
                assert body.get("recovered") is True
                status, payload = http_request(
                    port, "GET", f"/v1/jobs/{job_id}/result")
                assert status == 200 and payload["ok"]
            # the recovered run checkpointed: a resubmission resumes
            status, body = http_request(
                port, "POST", "/v1/jobs",
                {"dat": dats[0], "k_schedule": K_SCHEDULE})
            assert body.get("resumed") is True
            _, stats = http_request(port, "GET", "/v1/stats")
            assert stats["journal"]["recovered_pending"] == 3
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert "stopped (drained)" in out
        state = JobJournal.replay(journal)
        assert state.clean_shutdown
        assert state.pending() == []


class TestGracefulDrain:
    def test_sigterm_finishes_in_flight_work_then_exits(self, tmp_path):
        journal = str(tmp_path / "drain.wal")
        dats = [make_dat(n_contigs=1, seed=s) for s in (5, 6)]
        # the first wave stalls long enough that the signal lands while
        # it holds the lane and the second job waits: the drain must
        # finish both
        plan = tmp_path / "stall.json"
        plan.write_text(stall_plan(2.0))
        proc, port = start_serve("--journal", journal,
                                 "--fault-plan", str(plan),
                                 "--drain-timeout", "60")
        ids = []
        try:
            for dat in dats:
                status, body = http_request(
                    port, "POST", "/v1/jobs",
                    {"dat": dat, "k_schedule": K_SCHEDULE})
                assert status == 202, body
                ids.append(body["job_id"])
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "stopped (drained)" in out
        state = JobJournal.replay(journal)
        assert state.clean_shutdown
        assert sorted(j["job_id"] for j in state.finished()) == sorted(ids)
        assert all(j.get("status") == "done" for j in state.finished())
