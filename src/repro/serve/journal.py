"""Crash-safe job journal: an append-only, CRC-framed write-ahead log.

The service's in-memory job table dies with the process; the journal is
its durable shadow. Every lifecycle transition appends one framed
record::

    <crc32 hex8> <canonical JSON>\n

The JSON carries a monotonically increasing ``seq``, the operation
(``submit`` / ``dispatch`` / ``finish`` / ``shutdown``) and the
operation's data. Appends are flushed and (by default) fsynced before
the caller proceeds — the service journals a ``submit`` *before*
acknowledging it with 202, so an acknowledged job is always recoverable.

Recovery (:meth:`JobJournal.replay`) tolerates a torn tail: a kill -9
mid-append leaves at most one partial line, which fails its CRC frame
and is dropped (counted, for the post-mortem) without invalidating the
records before it. Replays fold the record stream into the last known
phase per job: ``finish``ed jobs resume from their checkpoints, anything
acknowledged but unfinished re-dispatches.

Framing follows the same discipline as
:class:`~repro.resilience.CheckpointStore`: corruption must be
*detected*, never silently parsed — but unlike checkpoints (one atomic
file per result) a WAL cannot rename-over per append, so each record
carries its own CRC instead.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError

#: Bumped when the record framing changes incompatibly.
JOURNAL_FORMAT = 1

#: The lifecycle operations a journal may record.
JOURNAL_OPS = ("open", "submit", "dispatch", "finish", "shutdown")

#: Record keys that frame a record or address its job(s); every other
#: key is the operation's data and folds into the job on replay.
_ENVELOPE = ("seq", "op", "job_id", "job_ids")


class JournalError(ReproError):
    """A journal cannot be appended to or replayed."""


def frame_record(record: dict) -> bytes:
    """Frame one record as ``<crc32 hex8> <json>\\n``."""
    body = json.dumps(record, sort_keys=True).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return f"{crc:08x} ".encode("ascii") + body + b"\n"


def parse_frame(line: bytes) -> dict | None:
    """Parse one framed line; ``None`` for torn / corrupt frames."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:].rstrip(b"\n")
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(body)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


@dataclass
class JournalState:
    """The fold of a journal's record stream at recovery time."""

    #: job_id -> last known record data, with a ``"phase"`` key folded in.
    jobs: dict[str, dict] = field(default_factory=dict)
    #: highest numeric job id seen (resume the id counter past it).
    max_job_ordinal: int = 0
    #: frames read successfully.
    records: int = 0
    #: frames dropped (torn tail from a crash, or on-disk damage).
    torn: int = 0
    #: the journal ends with a clean ``shutdown`` record.
    clean_shutdown: bool = False

    def pending(self) -> list[dict]:
        """Jobs acknowledged but not finished — these must re-dispatch."""
        return [job for job in self.jobs.values()
                if job.get("phase") != "finish"]

    def finished(self) -> list[dict]:
        """Jobs that reached a terminal state before the crash."""
        return [job for job in self.jobs.values()
                if job.get("phase") == "finish"]


class JobJournal:
    """Append-only WAL over one journal file.

    Appends are serialized by an internal lock so the service may issue
    them from executor threads; each append writes one framed line,
    flushes, and fsyncs (``fsync=False`` trades durability for test
    speed). All methods are synchronous file I/O — the service calls
    them via ``run_in_executor``, never on the event loop.
    """

    def __init__(self, path: str | Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._seq = 0
        self.appends = 0
        self._fh = open(self.path, "ab")
        self.append("open", format=JOURNAL_FORMAT, pid=os.getpid())

    def append(self, op: str, **data) -> int:
        """Durably append one record; returns its sequence number."""
        if op not in JOURNAL_OPS:
            raise JournalError(f"unknown journal op {op!r}")
        with self._lock:
            if self._fh.closed:
                raise JournalError(f"journal {self.path} is closed")
            self._seq += 1
            record = {"seq": self._seq, "op": op, **data}
            self._fh.write(frame_record(record))
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self.appends += 1
            return self._seq

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    # ------------------------------------------------------------------
    # recovery

    @staticmethod
    def replay(path: str | Path) -> JournalState:
        """Fold a journal file into per-job recovery state.

        Corrupt frames are dropped and counted; a ``submit`` whose frame
        was torn was never acknowledged (the 202 waits for the append),
        so dropping it loses nothing the client was promised.
        """
        state = JournalState()
        p = Path(path)
        if not p.exists():
            return state
        for line in p.read_bytes().splitlines(keepends=True):
            record = parse_frame(line)
            if record is None:
                if line.strip():
                    state.torn += 1
                continue
            state.records += 1
            op = record.get("op")
            job_id = record.get("job_id")
            if op == "shutdown":
                state.clean_shutdown = True
                continue
            state.clean_shutdown = False
            # what a record says about its job(s): everything but the
            # framing and the addressing, whatever the op carries
            data = {k: v for k, v in record.items() if k not in _ENVELOPE}
            if op == "submit" and isinstance(job_id, str):
                state.jobs[job_id] = {"job_id": job_id, **data,
                                      "phase": "submit"}
                if job_id.startswith("j"):
                    try:
                        state.max_job_ordinal = max(
                            state.max_job_ordinal, int(job_id[1:]))
                    except ValueError:
                        pass
            elif op in ("dispatch", "finish"):
                # dispatch records cover a whole wave ("job_ids"); finish
                # records are per job ("job_id")
                ids = record.get("job_ids") or (
                    [job_id] if isinstance(job_id, str) else [])
                for jid in ids:
                    job = state.jobs.get(jid)
                    if job is not None:
                        job.update(data, phase=op)
        return state


__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_OPS",
    "JobJournal",
    "JournalError",
    "JournalState",
    "frame_record",
    "parse_frame",
]
