"""The crash-safe job journal: framing, torn tails, replay folding."""

import pytest

from repro.serve import JOURNAL_FORMAT, JobJournal, JournalError
from repro.serve.journal import frame_record, parse_frame


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
        import json
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
