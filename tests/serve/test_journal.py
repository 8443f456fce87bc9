"""The crash-safe job journal: framing, torn tails, replay folding."""

import asyncio
import collections
import json
import random

import pytest

from repro.serve import (JOURNAL_FORMAT, AssemblyService, JobJournal,
                         JournalError)
from repro.serve.journal import frame_record, parse_frame

from .test_service import make_dat, poll_done, request


class TestFraming:
    def test_round_trip(self):
        record = {"seq": 3, "op": "submit", "job_id": "j3"}
        assert parse_frame(frame_record(record)) == record

    def test_rejects_crc_mismatch_and_garbage(self):
        line = frame_record({"seq": 1, "op": "finish", "job_id": "j1"})
        flipped = line[:12] + bytes([line[12] ^ 0xFF]) + line[13:]
        assert parse_frame(flipped) is None
        assert parse_frame(b"") is None
        assert parse_frame(b"short") is None
        assert parse_frame(b"zzzzzzzz {}") is None  # non-hex crc
        assert parse_frame(b"deadbeef-{}") is None  # missing separator

    def test_rejects_non_object_json(self):
        import zlib

        body = json.dumps([1, 2]).encode()
        crc = zlib.crc32(body) & 0xFFFFFFFF
        assert parse_frame(f"{crc:08x} ".encode() + body) is None


class TestAppend:
    def test_appends_are_sequenced_and_counted(self, tmp_path):
        journal = JobJournal(tmp_path / "j.wal", fsync=False)
        assert journal.append("submit", job_id="j1") == 2  # 1 was "open"
        assert journal.append("finish", job_id="j1") == 3
        assert journal.appends == 3
        journal.close()

    def test_unknown_op_rejected(self, tmp_path):
        journal = JobJournal(tmp_path / "j.wal", fsync=False)
        with pytest.raises(JournalError, match="unknown"):
            journal.append("frobnicate")
        journal.close()

    def test_append_after_close_rejected(self, tmp_path):
        journal = JobJournal(tmp_path / "j.wal", fsync=False)
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append("submit", job_id="j1")


class TestReplay:
    def make_journal(self, path):
        journal = JobJournal(path, fsync=False)
        journal.append("submit", job_id="j1", dat="d1", fingerprint="f1")
        journal.append("submit", job_id="j2", dat="d2", fingerprint="f2")
        journal.append("dispatch", job_ids=["j1", "j2"])
        journal.append("finish", job_id="j1", status="done")
        return journal

    def test_missing_file_is_empty_state(self, tmp_path):
        state = JobJournal.replay(tmp_path / "absent.wal")
        assert state.jobs == {} and state.records == 0

    def test_folds_lifecycle_per_job(self, tmp_path):
        self.make_journal(tmp_path / "j.wal").close()
        state = JobJournal.replay(tmp_path / "j.wal")
        assert state.records == 5  # open + 2 submits + dispatch + finish
        assert state.torn == 0 and not state.clean_shutdown
        assert state.max_job_ordinal == 2
        assert [j["job_id"] for j in state.finished()] == ["j1"]
        assert state.jobs["j1"]["status"] == "done"
        pending = state.pending()
        assert [j["job_id"] for j in pending] == ["j2"]
        assert pending[0]["phase"] == "dispatch"
        assert pending[0]["dat"] == "d2"  # submit data survives the fold
        # ... and so does whatever a later record says about the job:
        # the fold names no field, so a failure keeps its reason
        journal = JobJournal(tmp_path / "j.wal", fsync=False)
        journal.append("finish", job_id="j2", status="failed", error="boom")
        journal.close()
        failed = JobJournal.replay(tmp_path / "j.wal").jobs["j2"]
        assert failed == {"job_id": "j2", "dat": "d2", "fingerprint": "f2",
                          "phase": "finish", "status": "failed",
                          "error": "boom"}

    def test_torn_tail_dropped_without_losing_earlier_records(self, tmp_path):
        path = tmp_path / "j.wal"
        self.make_journal(path).close()
        with open(path, "ab") as fh:
            # a kill -9 mid-append: a frame missing its tail bytes
            fh.write(frame_record({"seq": 6, "op": "finish",
                                   "job_id": "j2"})[:15])
        state = JobJournal.replay(path)
        assert state.torn == 1
        assert state.records == 5
        # the torn finish never happened: j2 still re-dispatches
        assert [j["job_id"] for j in state.pending()] == ["j2"]

    def test_corrupt_middle_record_skipped(self, tmp_path):
        path = tmp_path / "j.wal"
        self.make_journal(path).close()
        lines = path.read_bytes().splitlines(keepends=True)
        lines[3] = b"00000000 " + lines[3][9:]  # wrong crc on the dispatch
        path.write_bytes(b"".join(lines))
        state = JobJournal.replay(path)
        assert state.torn == 1
        # the dispatch vanished; the finish after it still lands
        assert state.jobs["j1"]["phase"] == "finish"
        assert state.jobs["j2"]["phase"] == "submit"

    def test_clean_shutdown_flag(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = self.make_journal(path)
        journal.append("shutdown", drained=True)
        journal.close()
        assert JobJournal.replay(path).clean_shutdown
        # records after a shutdown (a restarted service reusing the
        # file) clear the flag again
        journal = JobJournal(path, fsync=False)
        journal.append("submit", job_id="j3", dat="d3")
        journal.close()
        state = JobJournal.replay(path)
        assert not state.clean_shutdown
        assert state.max_job_ordinal == 3

    def test_open_records_carry_the_format(self, tmp_path):
        path = tmp_path / "j.wal"
        JobJournal(path, fsync=False).close()
        record = parse_frame(path.read_bytes().splitlines(keepends=True)[0])
        assert record["op"] == "open"
        assert record["format"] == JOURNAL_FORMAT


@pytest.fixture(scope="module")
def served_journal(tmp_path_factory):
    """The bytes of a journal a real service wrote: three submits, their
    dispatches, their finishes, and the shutdown."""
    path = tmp_path_factory.mktemp("served") / "jobs.wal"

    async def serve():
        service = AssemblyService(journal_path=str(path),
                                  journal_fsync=False)
        port = await service.start()
        try:
            submits = await asyncio.gather(*[
                request(port, "POST", "/v1/jobs",
                        {"dat": make_dat(n_contigs=1, seed=60 + i),
                         "k_schedule": [21]})
                for i in range(3)])
            for status, body in submits:
                assert status == 202, body
                assert (await poll_done(port, body["job_id"]))["status"] \
                    == "done"
        finally:
            await service.stop()

    asyncio.run(serve())
    return path.read_bytes()


class TestHostileBytes:
    """ROADMAP 2(c): whatever bytes sit in a journal, ``replay`` answers
    with a ``JournalState`` — never an exception — whose jobs are among
    the undamaged replay's and whose every field holds a value some
    undamaged record wrote for that job; ``--recover`` finishes every
    job it re-seats."""

    @staticmethod
    def _undamaged(blob, tmp_path):
        """``(path, state, written)`` of the served journal: ``written``
        maps job id -> key -> the JSON of every value an intact record
        gave it (``phase``: the ops that addressed the job)."""
        path = _write(tmp_path, blob)
        state = JobJournal.replay(path)
        assert len(state.jobs) == 3 and state.torn == 0
        assert state.clean_shutdown and state.pending() == []
        written = collections.defaultdict(lambda: collections.defaultdict(set))
        ops = []
        for line in blob.splitlines(keepends=True):
            record = parse_frame(line)
            ops.append(record["op"])
            for job_id in record.get("job_ids") or [record.get("job_id")]:
                if job_id is None:
                    continue
                fields = written[job_id]
                fields["job_id"].add(json.dumps(job_id))
                fields["phase"].add(json.dumps(record["op"]))
                for key, value in record.items():
                    if key not in ("seq", "op", "job_id", "job_ids"):
                        fields[key].add(json.dumps(value, sort_keys=True))
        assert ops.count("submit") == ops.count("finish") == 3
        assert "dispatch" in ops
        return path, state, written

    @staticmethod
    def _replay_sound(path, blob, clean, written):
        path.write_bytes(blob)
        state = JobJournal.replay(path)
        assert set(state.jobs) <= set(clean.jobs)
        assert state.records <= clean.records
        for job_id, job in state.jobs.items():
            for key, value in job.items():
                assert json.dumps(value, sort_keys=True) \
                    in written[job_id][key], (job_id, key)
        return state

    def test_truncated_at_every_offset(self, served_journal, tmp_path):
        path, clean, written = self._undamaged(served_journal, tmp_path)
        for cut in range(len(served_journal)):
            state = self._replay_sound(path, served_journal[:cut], clean,
                                       written)
            assert state.torn <= 1, cut

    def test_seeded_bit_flips(self, served_journal, tmp_path):
        path, clean, written = self._undamaged(served_journal, tmp_path)
        rng = random.Random(2025)
        lost = 0
        for _ in range(600):
            damaged = bytearray(served_journal)
            for _ in range(rng.randint(1, 4)):
                damaged[rng.randrange(len(damaged))] ^= 1 << rng.randrange(8)
            state = self._replay_sound(path, bytes(damaged), clean, written)
            lost += state.records < clean.records
        assert lost > 500, lost

    def test_recover_finishes_every_reseated_job(self, served_journal,
                                                 tmp_path):
        """Torn inside the first finish record, a bit flipped in the
        dispatch: every job is re-seated unfinished, and runs to an end."""
        lines = served_journal.splitlines(keepends=True)
        ops = [parse_frame(line)["op"] for line in lines]
        dispatch = bytearray(lines[ops.index("dispatch")])
        dispatch[20] ^= 0x10
        lines[ops.index("dispatch")] = bytes(dispatch)
        cut = ops.index("finish")
        path = _write(tmp_path, b"".join(lines[:cut]) + lines[cut][:20])
        state = JobJournal.replay(path)
        reseated = [job["job_id"] for job in state.pending()]
        assert len(reseated) == 3 and state.torn == 2

        async def recover():
            service = AssemblyService(journal_path=str(path),
                                      journal_fsync=False, recover=True)
            port = await service.start()
            try:
                return [(await poll_done(port, job_id, timeout=30.0))
                        ["status"] for job_id in reseated]
            finally:
                await service.stop()

        assert set(asyncio.run(recover())) <= {"done", "failed"}


def _write(tmp_path, blob):
    path = tmp_path / "jobs.wal"
    path.write_bytes(blob)
    return path
