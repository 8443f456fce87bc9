"""Hostile ``.dat`` payloads at every door they can come in by.

Real reads carry ``N``, files get cut off, clients send what they have:
whatever is wrong with a payload, :func:`~repro.genomics.io.loads_dat`
says so with a ``DatasetError``, ``parse_job_request`` with a
``ProtocolError``, and ``POST /v1/jobs`` with a 400 — and the admission
slot the request took is free again, so the next tenant is served.
"""

import asyncio
import json
import shutil

import pytest

from repro.errors import DatasetError
from repro.genomics.io import dumps_dat, loads_dat
from repro.serve import AssemblyService
from repro.serve.http import frame_message, read_message
from repro.serve.protocol import ProtocolError, parse_job_request
from repro.serve.queue import DEFAULT_MAX_IN_FLIGHT
from tests.resilience.test_checkpoint import format_1_payload
from tests.serve.test_service import make_dat

GOOD = make_dat(n_contigs=2, seed=3)
LINES = GOOD.splitlines()
#: Line indices into the well-formed payload (two contigs with reads).
COUNT, HEADER, CONTIG, READ = 1, 2, 3, 4
SECOND_HEADER = [i for i, line in enumerate(LINES) if line[0] == ">"][1]
assert "\t" in LINES[READ] and "\t" in LINES[SECOND_HEADER + 2]


def _with(index, line):
    return "\n".join(LINES[:index] + [line] + LINES[index + 1:]) + "\n"


def _read(edit_seq=lambda s: s, edit_qual=lambda q: q):
    seq, qual = LINES[READ].split("\t")
    return _with(READ, f"{edit_seq(seq)}\t{edit_qual(qual)}")


def _depth(header_index, delta):
    name, depth = LINES[header_index].rsplit(" ", 1)
    return _with(header_index, f"{name} {int(depth) + delta}")


REJECTED = {
    "N-in-a-read": _read(lambda s: "N" + s[1:]),
    "N-in-a-contig": _with(CONTIG, "N" + LINES[CONTIG][1:]),
    "non-ascii-base": _read(lambda s: "é" + s[1:]),
    "empty-contig": _with(CONTIG, ""),
    "length-mismatch": _read(edit_qual=lambda q: q[:-1]),
    "phred-below-!": _read(edit_qual=lambda q: " " + q[1:]),
    "non-ascii-quality": _read(edit_qual=lambda q: "é" + q[1:]),
    "no-tab": _with(READ, LINES[READ].replace("\t", " ")),
    "negative-contig-count": _with(COUNT, "-1"),
    "zero-contig-count": _with(COUNT, "0"),
    "undersized-contig-count": _with(COUNT, "1"),
    "oversized-contig-count": _with(COUNT, "3"),
    "float-contig-count": _with(COUNT, "2.0"),
    "negative-read-count": _with(HEADER, LINES[HEADER].rsplit(" ", 1)[0]
                                 + " -1"),
    "undersized-read-count": _depth(HEADER, -1),
    "oversized-read-count": _depth(HEADER, +1),
    "oversized-last-read-count": _depth(SECOND_HEADER, +1),
    "no-magic": GOOD[1:],
    **{f"cut-before-line-{i + 1}": "".join(f"{line}\n" for line in LINES[:i])
       for i in range(len(LINES))},
}

#: Unusual, and meant: each parses to the contigs of the plain payload
#: (the empty read aside, which is a read of no bases).
ACCEPTED = {
    "crlf": GOOD.replace("\n", "\r\n"),
    "lower-case": "".join(
        (line.split("\t")[0].lower() + "\t" + line.split("\t")[1]
         if "\t" in line else line if line.startswith((">", "#"))
         else line.lower()) + "\n" for line in LINES),
    "empty-read": _with(READ, "\t"),
    "trailing-blank-lines": GOOD + "\n  \n",
}


def _ids(cases):
    return pytest.mark.parametrize("dat", list(cases.values()),
                                   ids=list(cases))


class _Captured:
    """The writer half of a connection whose bytes are kept, not sent."""

    def __init__(self):
        self.wire = b""

    def write(self, data):
        self.wire += data

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


async def exchange_raw(service, method, path, payload=None):
    """One request through the service's connection handler, fed to a
    ``StreamReader`` and followed by EOF: ``(status, body bytes)``."""
    body = json.dumps(payload).encode() if payload is not None else b""
    reader, writer = asyncio.StreamReader(), _Captured()
    reader.feed_data(frame_message(f"{method} {path} HTTP/1.1", body))
    reader.feed_eof()
    # a task of its own, as a connection is: the service tracks (and on
    # stop cancels) the task a handler runs in
    await asyncio.ensure_future(service._handle_client(reader, writer))
    answer = asyncio.StreamReader()
    answer.feed_data(writer.wire)
    answer.feed_eof()
    start_line, data = await read_message(answer)
    return int(start_line.split()[1]), data


async def exchange(service, method, path, payload=None):
    status, data = await exchange_raw(service, method, path, payload)
    return status, json.loads(data)


async def finished(service, job_id):
    """Poll ``job_id`` until it is done or failed: its last poll body."""
    for _ in range(3000):
        _, body = await exchange(service, "GET", f"/v1/jobs/{job_id}")
        if body["status"] in ("done", "failed"):
            break
        await asyncio.sleep(0.01)
    return body


async def completes(service, dat):
    """Submit ``dat`` and wait for it; the admission slot comes back."""
    status, body = await exchange(service, "POST", "/v1/jobs",
                                  {"dat": dat, "k_schedule": [21]})
    assert status == 202, body
    body = await finished(service, body["job_id"])
    assert body["status"] == "done", body
    assert service.admission.stats()["in_flight"] == 0


def served(scenario):
    """Run ``scenario(service)`` against a started service."""
    async def run():
        service = AssemblyService()
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.stop()

    return asyncio.run(run())


class TestRejected:
    @_ids(REJECTED)
    def test_loads_dat_names_source_and_says_why(self, dat):
        with pytest.raises(DatasetError, match="^upload 7: "):
            loads_dat(dat, source="upload 7")

    @_ids(REJECTED)
    def test_parse_job_request(self, dat):
        with pytest.raises(ProtocolError):
            parse_job_request({"dat": dat}, job_id="j1")

    @_ids(REJECTED)
    def test_post_is_a_400_that_holds_no_slot(self, dat):
        async def scenario(service):
            status, body = await exchange(service, "POST", "/v1/jobs",
                                          {"dat": dat})
            assert status == 400 and body["error"]
            stats = service.admission.stats()
            assert stats["in_flight"] == 0
            await completes(service, GOOD)

        served(scenario)

    @pytest.mark.parametrize("case,line", [
        ("N-in-a-read", READ), ("N-in-a-contig", CONTIG),
        ("empty-contig", CONTIG), ("phred-below-!", READ),
        ("non-ascii-quality", READ), ("length-mismatch", READ),
        ("negative-read-count", HEADER), ("negative-contig-count", COUNT),
        ("undersized-contig-count", SECOND_HEADER)])
    def test_content_errors_name_the_line(self, case, line):
        with pytest.raises(DatasetError, match=rf"line {line + 1}\b"):
            loads_dat(REJECTED[case])


class TestAccepted:
    @_ids(ACCEPTED)
    def test_parses_to_the_same_contigs(self, dat):
        contigs = loads_dat(dat)
        if "\t\n" in dat:
            assert len(contigs[0].reads[0]) == 0
            contigs[0].reads.reads[0] = loads_dat(GOOD)[0].reads[0]
        assert dumps_dat(contigs) == GOOD
        assert parse_job_request({"dat": dat}, job_id="j1").n_contigs == 2

    @_ids(ACCEPTED)
    def test_post_runs_to_completion(self, dat):
        served(lambda service: completes(service, dat))


def test_malformed_submits_do_not_use_up_admission():
    """More bad requests than there are admission slots: each is
    answered 400 on a connection that stays in frame, and the service
    still admits — it used to 429 every tenant after the 256th."""
    bad = REJECTED["N-in-a-read"]

    async def scenario(service):
        for _ in range(DEFAULT_MAX_IN_FLIGHT + 44):
            status, _ = await exchange(service, "POST", "/v1/jobs",
                                       {"dat": bad})
            assert status == 400
        stats = service.admission.stats()
        assert stats["in_flight"] == 0 and stats["rejected"] == 0
        await completes(service, GOOD)

    served(scenario)


class TestJournalFailure:
    """The 202 promises the job survives a crash. When the submit record
    cannot be written the promise cannot be made: the submit is refused
    and leaves nothing behind — it used to leave a queued phantom job,
    its admission slot taken, and a dead connection task."""

    @staticmethod
    def _full_disk(service, ops):
        """Make the journal fail to append the ``ops`` records."""
        real = service._journal.append

        def append(op, **data):
            if op in ops:
                raise OSError(28, "No space left on device")
            return real(op, **data)

        service._journal.append = append
        return lambda: setattr(service._journal, "append", real)

    def test_refused_submit_leaves_nothing(self, tmp_path):
        async def scenario():
            service = AssemblyService(journal_path=tmp_path / "j.wal")
            await service.start()
            try:
                repair = self._full_disk(service, {"submit"})
                # two submits on ONE connection: the journal fails under
                # the first and is repaired before the second is read
                reader, writer = asyncio.StreamReader(), _Captured()
                post = frame_message("POST /v1/jobs HTTP/1.1", json.dumps(
                    {"dat": GOOD, "k_schedule": [21]}).encode())
                reader.feed_data(post)
                handler = asyncio.ensure_future(
                    service._handle_client(reader, writer))
                while not (writer.wire or handler.done()):
                    await asyncio.sleep(0.001)
                assert not handler.done(), handler.exception()
                assert service.admission.stats()["in_flight"] == 0
                status, body = await exchange(service, "GET", "/v1/jobs/j1")
                assert status == 404, body
                repair()
                reader.feed_data(post)
                reader.feed_eof()
                await handler
                answers = asyncio.StreamReader()
                answers.feed_data(writer.wire)
                answers.feed_eof()
                refused, why = await read_message(answers)
                assert refused.split()[1] == "503"
                assert "No space left" in json.loads(why)["error"]
                admitted, job = await read_message(answers)
                assert admitted.split()[1] == "202"
                body = await finished(service, json.loads(job)["job_id"])
                assert body["status"] == "done", body
                assert service.admission.stats()["in_flight"] == 0
                assert service.stats()["journal"]["write_errors"] == 1
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_failed_finish_record_still_finishes_the_wave(self, tmp_path):
        """Every job of the wave is finished in memory (its slot back,
        its result served) though no ``finish`` record could be written;
        the journal still lists them for ``--recover``. A job reads done
        before its wave awaits the ``finish`` append, so the failed
        appends are counted once ``stop`` has drained the wave tasks."""
        async def scenario():
            service = AssemblyService(journal_path=tmp_path / "j.wal")
            await service.start()
            try:
                self._full_disk(service, {"finish"})
                ids = []
                for seed in (3, 4, 5):
                    status, body = await exchange(
                        service, "POST", "/v1/jobs",
                        {"dat": make_dat(n_contigs=2, seed=seed),
                         "k_schedule": [21]})
                    assert status == 202, body
                    ids.append(body["job_id"])
                for job_id in ids:
                    body = await finished(service, job_id)
                    assert body["status"] == "done", body
                assert service.admission.stats()["in_flight"] == 0
            finally:
                await service.stop()
            assert service.stats()["journal"]["write_errors"] == 3

        asyncio.run(scenario())

    def test_failed_dispatch_record_fails_the_wave(self, tmp_path):
        """A wave whose ``dispatch`` record cannot be written does not
        run; its jobs fail with the write's error, visibly, and give
        their slots back (a swallowed error would leave them RUNNING)."""
        async def scenario():
            service = AssemblyService(journal_path=tmp_path / "j.wal")
            await service.start()
            try:
                self._full_disk(service, {"dispatch"})
                status, body = await exchange(
                    service, "POST", "/v1/jobs",
                    {"dat": GOOD, "k_schedule": [21]})
                assert status == 202, body
                body = await finished(service, body["job_id"])
                assert body["status"] == "failed", body
                assert "No space left" in body["error"]
                assert service.admission.stats()["in_flight"] == 0
            finally:
                await service.stop()

        asyncio.run(scenario())


class TestCheckpointBoundary:
    """A job's checkpoint is its result body, as served: written once,
    read back as is, and never the reason a job does not finish."""

    @staticmethod
    def _checkpointed(tmp_path, scenario):
        async def run():
            service = AssemblyService(checkpoint_dir=str(tmp_path / "ck"))
            await service.start()
            try:
                return await scenario(service)
            finally:
                await service.stop()

        return asyncio.run(run())

    def test_failed_checkpoint_write_still_finishes_the_wave(self, tmp_path):
        """The checkpoint directory vanishes under a running service:
        every job of the wave still finishes (it used to stay RUNNING
        behind the first failed save, slots leaked), un-checkpointed."""
        async def scenario(service):
            shutil.rmtree(tmp_path / "ck")
            ids = []
            for seed in (3, 4, 5):
                status, body = await exchange(
                    service, "POST", "/v1/jobs",
                    {"dat": make_dat(n_contigs=2, seed=seed),
                     "k_schedule": [21]})
                assert status == 202, body
                ids.append(body["job_id"])
            for job_id in ids:
                body = await finished(service, job_id)
                assert body["status"] == "done", body
                status, _ = await exchange(service, "GET",
                                           f"/v1/jobs/{job_id}/result")
                assert status == 200
            stats = service.stats()
            assert stats["admission"]["in_flight"] == 0
            assert stats["checkpoints"] == {"quarantined": 0,
                                            "write_errors": 3}

        self._checkpointed(tmp_path, scenario)

    def test_resumed_body_is_the_computed_body(self, tmp_path):
        job = {"dat": GOOD, "k_schedule": [21, 33]}

        async def scenario(service):
            bodies = []
            for resumed in (False, True):
                status, body = await exchange(service, "POST", "/v1/jobs", job)
                assert status == 202 and body.get("resumed", False) is resumed
                assert (await finished(service, body["job_id"]))[
                    "status"] == "done"
                bodies.append(await exchange_raw(
                    service, "GET", f"/v1/jobs/{body['job_id']}/result"))
            assert service.stats()["batcher"]["waves"] == 1
            return bodies

        computed, resumed = self._checkpointed(tmp_path, scenario)
        assert computed[0] == 200 and resumed == computed  # byte for byte
        (path,) = (tmp_path / "ck").glob("job-*_k33.json")
        text = path.read_text()
        assert json.loads(text)["data"] == json.loads(computed[1])["result"]
        assert text.count('"profile"') == 1 and "full_profile" not in text

    def test_format_1_checkpoint_is_recomputed(self, tmp_path):
        """A checkpoint the previous format's ``save`` left behind is not
        read as a result: the job runs, and its save replaces the file."""
        job = {"dat": GOOD, "k_schedule": [21]}
        fingerprint = parse_job_request(job, job_id="j0").fingerprint

        async def scenario(service):
            path = tmp_path / "ck" / f"job-{fingerprint}_k21.json"
            path.write_text(json.dumps(format_1_payload(
                f"job-{fingerprint}", 21, {"stale": True, "profile": {}},
                {"suite": "serve"})) + "\n")
            status, body = await exchange(service, "POST", "/v1/jobs", job)
            assert status == 202 and "resumed" not in body
            assert (await finished(service, body["job_id"]))[
                "status"] == "done"
            _, result = await exchange(
                service, "GET", f"/v1/jobs/{body['job_id']}/result")
            assert result["ok"] and "stale" not in result["result"]
            assert json.loads(path.read_text())["format"] == 2
            _, again = await exchange(service, "POST", "/v1/jobs", job)
            assert again.get("resumed") is True
            assert service.stats()["checkpoints"]["quarantined"] == 0

        self._checkpointed(tmp_path, scenario)
