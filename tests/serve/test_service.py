"""End-to-end tests of the assembly service over its real HTTP socket."""

import asyncio
import hashlib
import json

import numpy as np
import pytest

from repro.core.extension import PRODUCTION_POLICY
from repro.genomics.io import dumps_dat, loads_dat
from repro.kernels import CudaLocalAssemblyKernel, backend_for_device
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.resilience.checkpoint import result_to_dict
from repro.serve import AssemblyService, JobJournal
from repro.serve.protocol import parse_job_request, spec_to_dict
from repro.serve.worker import run_wave
from repro.simt.device import A100


def make_dat(n_contigs=2, seed=7) -> str:
    from repro.genomics.simulate import (
        ErrorProfile,
        ScenarioSpec,
        simulate_batch,
    )

    spec = ScenarioSpec(contig_length=120, flank_length=50, read_length=70,
                        depth=5, seed_window=40)
    errors = ErrorProfile(error_rate=0.0, lo_quality_fraction=0.0)
    rng = np.random.default_rng(seed)
    return dumps_dat([sc.contig for sc in
                      simulate_batch(n_contigs, spec, rng, errors)])


async def exchange(reader, writer, method, path, payload=None):
    """One request on an open connection; ``payload`` is JSON-encoded
    unless it is already ``bytes`` (for bodies no encoder would emit)."""
    body = (payload if isinstance(payload, bytes)
            else json.dumps(payload).encode() if payload is not None
            else b"")
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                 f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    data = await reader.readexactly(length) if length else b""
    return status, json.loads(data or b"{}")


async def request(port, method, path, payload=None):
    """One request on its own connection (see :func:`exchange`)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await exchange(reader, writer, method, path, payload)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def poll_done(port, job_id, timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        _, body = await request(port, "GET", f"/v1/jobs/{job_id}")
        if body["status"] in ("done", "failed"):
            return body
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"job {job_id} never finished: {body}")
        await asyncio.sleep(0.01)


def solo_result(dat: str, k_schedule) -> dict:
    """What the worker's kernel returns for this job run on its own."""
    kernel = backend_for_device(A100, policy=PRODUCTION_POLICY,
                                overflow_policy="drop-contig")
    result = kernel.run_schedule(loads_dat(dat), tuple(k_schedule))
    return json.loads(json.dumps(result_to_dict(result)))


def stall_first_wave(delay_s: float) -> FaultPlan:
    """The first wave launched hangs (lane held) for ``delay_s``."""
    return FaultPlan(faults=(FaultSpec(FaultKind.WAVE_STALL,
                                       delay_s=delay_s),))


def hold_first_wave(service: AssemblyService) -> asyncio.Event:
    """Keep the first wave's lane busy until the returned event is set,
    so jobs submitted meanwhile queue behind it."""
    release = asyncio.Event()
    supervised = service.supervisor.run
    waves = 0

    async def held(key, jobs):
        nonlocal waves
        waves += 1
        if waves == 1:
            await release.wait()
        return await supervised(key, jobs)

    service.supervisor.run = held
    return release


async def submit_ok(port, dat, k_schedule=(21,)) -> str:
    status, body = await request(port, "POST", "/v1/jobs",
                                 {"dat": dat, "k_schedule": list(k_schedule)})
    assert status == 202, body
    return body["job_id"]


class TestLaneAwareWaves:
    def test_jobs_behind_a_busy_lane_fuse_into_one_wave(self):
        """The coalescing check (DESIGN.md decision 44): with the lane
        held, ten jobs wait in one bucket and run as one wave, each
        result equal to its solo run. A batcher that stops coalescing
        fails here, whatever the host's speed."""
        dats = [make_dat(n_contigs=1 + s % 3, seed=20 + s) for s in range(11)]

        async def scenario():
            service = AssemblyService()
            release = hold_first_wave(service)
            port = await service.start()
            try:
                ids = [await submit_ok(port, dats[0], (21, 33))]
                for dat in dats[1:]:      # its wave holds the lane
                    ids.append(await submit_ok(port, dat, (21, 33)))
                _, waiting = await request(port, "GET", "/v1/stats")
                release.set()
                payloads = []
                for job_id in ids:
                    assert (await poll_done(port, job_id))["status"] == "done"
                    payloads.append((await request(
                        port, "GET", f"/v1/jobs/{job_id}/result"))[1])
                _, stats = await request(port, "GET", "/v1/stats")
                return waiting, payloads, stats
            finally:
                await service.stop()

        waiting, payloads, stats = asyncio.run(scenario())
        assert waiting["batcher"]["pending_jobs"] == 10
        assert waiting["batcher"]["pending_buckets"] == 1
        assert waiting["batcher"]["lanes_busy"] == 1
        assert stats["batcher"]["waves"] == 2
        assert stats["batcher"]["biggest_wave"] == 10
        assert stats["batcher"]["lanes_busy"] == 0
        for dat, payload in zip(dats, payloads):
            assert payload["result"] == solo_result(dat, (21, 33))
        profiles = [p["result"]["profile"] for p in payloads]
        assert stats["prep_cache"] == {
            "hits": sum(p["prep_cache_hits"] for p in profiles),
            "misses": sum(p["prep_cache_misses"] for p in profiles)}

    def test_stop_drains_a_bucket_waiting_for_the_lane(self, tmp_path):
        journal = str(tmp_path / "jobs.wal")

        async def scenario():
            service = AssemblyService(journal_path=journal,
                                      journal_fsync=False,
                                      fault_plan=stall_first_wave(0.4))
            port = await service.start()
            ids = [await submit_ok(port, make_dat(n_contigs=1, seed=30))]
            await asyncio.sleep(0.1)
            for seed in (31, 32, 33):
                ids.append(await submit_ok(
                    port, make_dat(n_contigs=1, seed=seed)))
            drained = await service.stop()
            return drained, [service._jobs[i].status.value for i in ids]

        drained, statuses = asyncio.run(scenario())
        assert drained is True
        assert statuses == ["done"] * 4
        state = JobJournal.replay(journal)
        assert state.clean_shutdown and state.pending() == []

    def test_expired_drain_leaves_waiting_jobs_journaled_then_recovered(
            self, tmp_path):
        journal = str(tmp_path / "jobs.wal")
        dats = [make_dat(n_contigs=1, seed=40 + i) for i in range(5)]

        async def abandon():
            service = AssemblyService(journal_path=journal,
                                      journal_fsync=False,
                                      fault_plan=stall_first_wave(30.0))
            port = await service.start()
            ids = [await submit_ok(port, dats[0])]
            await asyncio.sleep(0.1)  # stalled: the lane never frees
            for dat in dats[1:]:
                ids.append(await submit_ok(port, dat))
            return ids, await service.stop(drain_timeout_s=0.2)

        ids, drained = asyncio.run(abandon())
        assert drained is False
        state = JobJournal.replay(journal)
        assert sorted(j["job_id"] for j in state.pending()) == sorted(ids)

        async def recover():
            service = AssemblyService(journal_path=journal,
                                      journal_fsync=False, recover=True)
            port = await service.start()
            try:
                for job_id in ids:
                    body = await poll_done(port, job_id)
                    assert body["status"] == "done" and body["recovered"]
                _, stats = await request(port, "GET", "/v1/stats")
                return stats
            finally:
                await service.stop()

        stats = asyncio.run(recover())
        assert stats["journal"]["recovered_pending"] == len(ids)
        assert stats["batcher"]["jobs_waved"] == len(ids)
        assert JobJournal.replay(journal).pending() == []

    def test_two_workers_run_at_most_two_waves_at_once(self):
        dats = [make_dat(n_contigs=1, seed=50 + i) for i in range(6)]

        async def scenario():
            service = AssemblyService(max_wave_warps=1, workers=2)
            running = peak = 0
            supervised = service.supervisor.run

            async def counted(key, jobs):
                nonlocal running, peak
                running += 1
                peak = max(peak, running, service.batcher.lanes_busy)
                try:
                    return await supervised(key, jobs)
                finally:
                    running -= 1

            service.supervisor.run = counted
            port = await service.start()
            try:
                ids = await asyncio.gather(*[submit_ok(port, dat)
                                             for dat in dats])
                for job_id in ids:
                    assert (await poll_done(port, job_id))["status"] == "done"
                return peak, service.batcher.stats()
            finally:
                await service.stop()

        peak, stats = asyncio.run(scenario())
        assert peak == 2
        assert stats["waves"] == 6 and stats["lanes_busy"] == 0


class TestServiceEndToEnd:
    def test_burst_coalesces_and_matches_direct_engine_run(self):
        """The first job of a burst takes the idle lane, the rest fuse
        into one wave behind it; results byte-exact."""
        dats = [make_dat(seed=s) for s in (1, 2, 3)]

        async def scenario():
            service = AssemblyService()
            release = hold_first_wave(service)
            port = await service.start()
            try:
                submits = await asyncio.gather(*[
                    request(port, "POST", "/v1/jobs",
                            {"dat": dat, "k_schedule": [21, 33]})
                    for dat in dats])
                assert all(status == 202 for status, _ in submits)
                release.set()
                ids = [body["job_id"] for _, body in submits]
                for job_id in ids:
                    body = await poll_done(port, job_id)
                    assert body["status"] == "done"
                results = [await request(port, "GET",
                                         f"/v1/jobs/{job_id}/result")
                           for job_id in ids]
                _, stats = await request(port, "GET", "/v1/stats")
                return results, stats
            finally:
                await service.stop()

        results, stats = asyncio.run(scenario())
        # one solo wave, then the rest of the burst as one megabatch wave
        assert stats["batcher"]["waves"] == 2
        assert stats["batcher"]["biggest_wave"] == 2
        assert stats["jobs"]["completed"] == 3
        # each tenant's result equals a direct solo engine run
        for dat, (status, payload) in zip(dats, results):
            assert status == 200 and payload["ok"]
            kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
            solo = kern.run_schedule(loads_dat(dat), (21, 33))
            got = payload["result"]
            assert got["k"] == solo.k
            assert [[b, s] for b, s in got["right"]] == [
                [bases, state.value] for bases, state in solo.right]
            assert [[b, s] for b, s in got["left"]] == [
                [bases, state.value] for bases, state in solo.left]

    def test_resume_from_checkpoint_on_identical_resubmission(self, tmp_path):
        dat = make_dat(seed=11)
        body = {"dat": dat, "k_schedule": [21]}

        async def scenario():
            service = AssemblyService(checkpoint_dir=str(tmp_path))
            port = await service.start()
            try:
                _, first = await request(port, "POST", "/v1/jobs", body)
                done = await poll_done(port, first["job_id"])
                assert "resumed" not in done
                _, r1 = await request(
                    port, "GET", f"/v1/jobs/{first['job_id']}/result")
                _, second = await request(port, "POST", "/v1/jobs", body)
                assert second.get("resumed") is True
                _, r2 = await request(
                    port, "GET", f"/v1/jobs/{second['job_id']}/result")
                _, stats = await request(port, "GET", "/v1/stats")
                return r1, r2, stats
            finally:
                await service.stop()

        r1, r2, stats = asyncio.run(scenario())
        assert stats["jobs"]["resumed"] == 1
        assert stats["batcher"]["waves"] == 1  # second run never launched
        assert r1["result"]["right"] == r2["result"]["right"]
        assert r1["result"]["left"] == r2["result"]["left"]

    def test_admission_control_returns_429_past_the_budget(self):
        async def scenario():
            # a held lane: submissions stay in flight while we overfill
            service = AssemblyService(max_in_flight=2)
            release = hold_first_wave(service)
            port = await service.start()
            try:
                codes = []
                for seed in (1, 2, 3):
                    status, body = await request(
                        port, "POST", "/v1/jobs",
                        {"dat": make_dat(seed=seed), "k_schedule": [21]})
                    codes.append(status)
                _, stats = await request(port, "GET", "/v1/stats")
                return codes, stats
            finally:
                release.set()
                await service.stop()

        codes, stats = asyncio.run(scenario())
        assert codes == [202, 202, 429]
        assert stats["admission"]["rejected"] == 1

    def test_concurrent_burst_admission_is_exact(self):
        """32 simultaneous submits against a budget of 8: 8 in, 24 out."""
        async def scenario():
            # a held lane: admitted jobs stay in flight during the burst
            service = AssemblyService(max_in_flight=8)
            release = hold_first_wave(service)
            port = await service.start()
            try:
                statuses = await asyncio.gather(*[
                    request(port, "POST", "/v1/jobs",
                            {"dat": make_dat(n_contigs=1, seed=s),
                             "k_schedule": [21]})
                    for s in range(32)])
                _, stats = await request(port, "GET", "/v1/stats")
                return [status for status, _ in statuses], stats
            finally:
                release.set()
                await service.stop()

        codes, stats = asyncio.run(scenario())
        assert sorted(codes).count(202) == 8
        assert sorted(codes).count(429) == 24
        assert stats["admission"]["rejected"] == 24

    def test_draining_service_refuses_submits_with_503(self):
        dat = make_dat(n_contigs=1, seed=9)

        async def scenario():
            # an injected stall keeps the wave in flight while we drain
            service = AssemblyService(fault_plan=stall_first_wave(0.5))
            port = await service.start()
            _, first = await request(port, "POST", "/v1/jobs",
                                     {"dat": dat, "k_schedule": [21]})
            stop_task = asyncio.get_running_loop().create_task(
                service.stop())
            await asyncio.sleep(0.1)  # drain has begun, wave still stalled
            refused = await request(port, "POST", "/v1/jobs",
                                    {"dat": dat, "k_schedule": [21]})
            drained = await stop_task
            return first, refused, drained, service

        first, refused, drained, service = asyncio.run(scenario())
        assert refused[0] == 503 and "draining" in refused[1]["error"]
        assert drained is True  # the in-flight job finished before exit
        assert service._jobs[first["job_id"]].status.value == "done"

    def test_bounded_drain_gives_up_on_a_stuck_wave(self):
        async def scenario():
            service = AssemblyService(fault_plan=stall_first_wave(30.0))
            port = await service.start()
            _, body = await request(
                port, "POST", "/v1/jobs",
                {"dat": make_dat(n_contigs=1, seed=4), "k_schedule": [21]})
            await asyncio.sleep(0.05)  # the wave is now stalled
            return await service.stop(drain_timeout_s=0.2)

        assert asyncio.run(scenario()) is False

    def test_recover_reseats_a_failed_job_with_its_error(self, tmp_path):
        """A job that failed before the crash comes back failed *with
        the reason*, from the journal alone — not re-run, not blank."""
        journal = str(tmp_path / "jobs.wal")
        crash = FaultPlan(faults=(FaultSpec(FaultKind.WORKER_CRASH,
                                            times=100),))

        async def fail_then_stop():
            service = AssemblyService(journal_path=journal,
                                      journal_fsync=False, wave_retries=0,
                                      fault_plan=crash)
            port = await service.start()
            try:
                job_id = await submit_ok(port, make_dat(n_contigs=1, seed=5))
                return await poll_done(port, job_id)
            finally:
                await service.stop()

        before = asyncio.run(fail_then_stop())
        assert before["status"] == "failed" and before["error"]

        async def recover():
            service = AssemblyService(journal_path=journal,
                                      journal_fsync=False, recover=True)
            port = await service.start()
            try:
                _, polled = await request(
                    port, "GET", f"/v1/jobs/{before['job_id']}")
                _, result = await request(
                    port, "GET", f"/v1/jobs/{before['job_id']}/result")
                return polled, result, service.stats()
            finally:
                await service.stop()

        polled, result, stats = asyncio.run(recover())
        assert polled == {**before, "recovered": True}
        assert result == {"ok": False, "error": before["error"]}
        assert stats["journal"]["recovered_finished"] == 1
        assert stats["batcher"]["waves"] == 0  # settled from the journal

    @pytest.mark.parametrize("backend", ["scalar", "nope", "buggy-demo"])
    def test_backend_no_wave_can_run_is_a_400_that_costs_nothing(
            self, tmp_path, backend):
        """Was: 202, journalled, then the wave died inside the worker
        (buggy-demo, once a deliberately wrong kernel, is now unknown)."""
        journal = tmp_path / "jobs.wal"

        async def scenario():
            service = AssemblyService(journal_path=str(journal),
                                      journal_fsync=False)
            port = await service.start()
            try:
                written = journal.read_bytes()
                response = await request(
                    port, "POST", "/v1/jobs",
                    {"dat": make_dat(), "backend": backend})
                return (response, service.admission.in_flight,
                        journal.read_bytes() == written, service.stats())
            finally:
                await service.stop()

        (status, body), in_flight, journal_untouched, stats = \
            asyncio.run(scenario())
        assert status == 400 and "backend" in body["error"]
        assert in_flight == 0 and journal_untouched
        assert stats["jobs"]["known"] == 0 and stats["batcher"]["waves"] == 0

    def test_mistyped_options_are_a_400_on_a_connection_that_stays_open(
            self):
        """Was: ``"device": ["A100"]`` raised ``AttributeError`` in the
        connection task, which died without a response; ``"k_schedule":
        [21.9]`` ran as k = 21."""
        bad = [({"device": ["A100"]}, "device"), ({"device": 7}, "device"),
               ({"k_schedule": [21.9]}, "k_schedule")]

        async def scenario():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context))
            service = AssemblyService()
            port = await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                answers = [await exchange(reader, writer, "POST", "/v1/jobs",
                                          {"dat": make_dat(), **options})
                           for options, _ in [*bad, ({}, None)]]
                writer.close()
                await writer.wait_closed()
                await poll_done(port, answers[-1][1]["job_id"])
            finally:
                await service.stop()
            return answers, loop_errors

        answers, loop_errors = asyncio.run(scenario())
        for (status, body), (_, field) in zip(answers, bad):
            assert status == 400 and field in body["error"]
        assert answers[-1][0] == 202  # the same connection, still in frame
        assert loop_errors == []

    @pytest.mark.parametrize("wire", [
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nX-Junk: \xff\xfe\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        b"complete garbage\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
    ], ids=["negative-length", "non-ascii-header", "70kB-header-line",
            "garbage-request-line", "over-limit-body"])
    def test_malformed_http_answers_400_and_closes_cleanly(self, wire):
        """Was: an unhandled ValueError / UnicodeDecodeError in the
        client task (reported by the loop's exception handler), or a
        silent close — and never a response."""
        async def scenario():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context))
            service = AssemblyService()
            port = await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(wire)
                await writer.drain()
                # read to EOF: the server must answer once, then close
                answer = await asyncio.wait_for(reader.read(), 10.0)
                writer.close()
                await writer.wait_closed()
                # the service is still healthy for the next client
                healthy = await request(port, "GET", "/v1/stats")
            finally:
                await service.stop()
            await asyncio.sleep(0)  # let any failed task report itself
            return answer, healthy, loop_errors

        answer, healthy, loop_errors = asyncio.run(scenario())
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close" in head
        assert "error" in json.loads(body)
        assert healthy[0] == 200
        assert loop_errors == []

    def test_http_error_paths(self):
        async def scenario():
            service = AssemblyService()
            port = await service.start()
            try:
                bad_dat = await request(port, "POST", "/v1/jobs",
                                        {"dat": "garbage"})
                bad_json = await request(port, "POST", "/v1/jobs",
                                         b"{not json")
                bad_utf8 = await request(port, "POST", "/v1/jobs",
                                         b'{"dat": "\xff\xfe"}')
                unknown = await request(port, "GET", "/v1/jobs/j999")
                no_route = await request(port, "GET", "/v1/nope")
                status, body = await request(
                    port, "POST", "/v1/jobs",
                    {"dat": make_dat(), "k_schedule": [21]})
                pending = await request(
                    port, "GET", f"/v1/jobs/{body['job_id']}/result")
                await poll_done(port, body["job_id"])
                return bad_dat, bad_json, bad_utf8, unknown, no_route, pending
            finally:
                await service.stop()

        bad_dat, bad_json, bad_utf8, unknown, no_route, pending = \
            asyncio.run(scenario())
        assert bad_dat[0] == 400 and "dat" in bad_dat[1]["error"]
        # a well-framed request with a bad body is a 400 too — also when
        # the body is not even UTF-8 (was: UnicodeDecodeError in the task)
        assert bad_json[0] == bad_utf8[0] == 400
        assert "bad JSON body" in bad_utf8[1]["error"]
        assert unknown[0] == 404
        assert no_route[0] == 404
        # polling a result before the wave lands is a 409, not an error
        assert pending[0] in (409, 200)


class TestRunWave:
    # what the service's dispatch path sends: one job record per tenant
    WAVE = {"jobs": [spec_to_dict(parse_job_request(
        {"dat": make_dat(seed=i), "k_schedule": [21, 33]}, job_id=f"j{i}"))
        for i in (1, 2)]}

    def test_run_wave_scatters_payloads_per_job(self):
        payloads = run_wave(self.WAVE)
        assert len(payloads) == 2
        assert all(p["ok"] for p in payloads)
        assert payloads[0]["result"]["right"] != payloads[1]["result"]["right"]

    #: sha256 of the serialized payloads: what a tenant is sent, byte
    #: for byte (the serve bench's result fingerprints, DESIGN.md
    #: decision 44)
    PAYLOAD_SHA256 = (
        "3f53cd378438f80104304279a4f1be8ef243d0dc5c1dbd615b53799d7d7b448f")

    def test_rerunning_a_wave_is_byte_identical_and_equals_solo(self):
        """A retry, a bisection half or a re-dispatch must reproduce the
        first run's payloads (the worker keeps nothing between waves),
        and those payloads are pinned."""
        first, again = run_wave(self.WAVE), run_wave(self.WAVE)
        wire = json.dumps(first, sort_keys=True)
        assert wire == json.dumps(again, sort_keys=True)
        assert hashlib.sha256(wire.encode()).hexdigest() == \
            self.PAYLOAD_SHA256
        for job, payload in zip(self.WAVE["jobs"], again):
            assert payload["result"] == solo_result(job["dat"], (21, 33))

    def test_run_wave_rejects_empty_wave(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="at least one job"):
            run_wave({"jobs": []})
