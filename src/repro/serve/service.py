"""The async assembly service: HTTP front, coalescing middle, waves out.

Endpoints (HTTP/1.1, JSON bodies)::

    POST /v1/jobs             submit a job  -> 202 {"job_id", "status"}
                              over budget   -> 429 {"error"}
                              malformed     -> 400 {"error"}
                              draining      -> 503 {"error"}
    GET  /v1/jobs/<id>        poll          -> 200 {"status", ...}
    GET  /v1/jobs/<id>/result result        -> 200 payload | 409 pending
    GET  /v1/stats            service counters (admission, waves, cache)

The request path is fully async (stdlib ``asyncio.start_server`` plus
the minimal HTTP framing of :mod:`repro.serve.http` — no third-party
dependencies); assembly itself runs
in an executor so the event loop keeps accepting and coalescing during a
wave. ``workers <= 1`` uses a dedicated single-thread executor (one
wave at a time); ``workers > 1`` uses a process pool so independent
waves overlap across cores. Either way the batcher counts one **lane**
per worker and launches a wave only into a free one, so jobs arriving
while the lanes are busy fill the next wave instead of queueing as solo
waves inside the executor; a wave holds its lane for the supervised
compute only and persists its results after handing the lane back.

Every wave runs under the :class:`~repro.serve.supervisor.WaveSupervisor`
fault boundary: per-job deadlines, seeded backoff+jitter retries for
transient failures, blast-radius bisection for crashes and timeouts, a
per-coalescing-key circuit breaker, and load shedding that shrinks the
coalescing window and tightens admission as depth grows. A worker crash
therefore fails only the poisoned job, byte-identically to what its
co-tenants would have produced anyway (record/replay parity).

With a checkpoint directory configured, every finished job is persisted
through :class:`~repro.resilience.CheckpointStore` under its request
fingerprint, and an identical resubmission — same payload, same
execution options — completes instantly from the checkpoint instead of
recomputing (the poll body says ``"resumed": true``). With a journal
path configured, every submit is durably logged *before* its 202
acknowledgement, so ``repro serve --recover`` after a kill -9 re-seats
every acknowledged job: finished ones from their checkpoints, in-flight
ones by re-dispatch. Checkpoint and journal I/O are synchronous file
I/O and therefore always run in the executor, never on the event loop.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import signal
from concurrent.futures import BrokenExecutor, Executor, \
    ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import CheckpointError, ReproError
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import (
    CHECKPOINT_FAULT_KINDS,
    WAVE_FAULT_KINDS,
    FaultInjector,
    FaultKind,
    FaultPlan,
    corrupt_file,
)
from repro.serve.batcher import (
    DEFAULT_MAX_WAVE_WARPS,
    DEFAULT_WINDOW_S,
    CoalescingBatcher,
)
from repro.serve.http import frame_message, read_request, status_line
from repro.serve.journal import JobJournal, JournalError, JournalState
from repro.serve.protocol import JobSpec, JobStatus, ProtocolError, \
    parse_job_request, spec_from_dict, spec_to_dict
from repro.serve.queue import DEFAULT_MAX_IN_FLIGHT, AdmissionControl
from repro.serve.supervisor import (
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_DEADLINE_S,
    CircuitBreaker,
    LoadShedder,
    WaveSupervisor,
)
from repro.serve.worker import run_wave


@dataclass
class JobRecord:
    spec: JobSpec
    status: JobStatus = JobStatus.QUEUED
    payload: dict | None = None
    error: str | None = None
    resumed: bool = False
    recovered: bool = False
    submitted_at: float = 0.0
    finished_at: float = 0.0

    def status_body(self) -> dict:
        body = {"job_id": self.spec.job_id, "status": self.status.value,
                "fingerprint": self.spec.fingerprint}
        if self.resumed:
            body["resumed"] = True
        if self.recovered:
            body["recovered"] = True
        if self.error is not None:
            body["error"] = self.error
        return body


class AssemblyService:
    """A long-lived coalescing assembly server over one event loop.

    Args:
        window_s: coalescing window with a lane idle; 0 disables fusion
            (solo waves).
        max_wave_warps: high-water mark sealing a bucket early.
        max_in_flight: admission budget (submits past it get 429).
        workers: wave lanes; > 1 runs them on a process pool, otherwise
            one thread.
        checkpoint_dir: enables per-job checkpoint/resume when set.
        journal_path: enables the crash-safe job journal when set.
        recover: replay the journal on start, re-seating acknowledged
            jobs (requires ``journal_path``).
        default_deadline_s: per-job deadline when a submission has none.
        wave_retries: transient re-attempts per wave before bisection.
        drain_timeout_s: default bound on :meth:`stop`'s drain phase.
        breaker_threshold / breaker_cooldown_s: circuit breaker tuning.
        fault_plan: optional seeded chaos plan; wave- and
            checkpoint-scoped faults fire in the service process. A
            plan with any other kind, or a spec scoped by launch
            ordinal, would never fire and is a :class:`ReproError`.
        seed: seeds the retry-jitter generator.
        journal_fsync: fsync each journal append (disable in tests).
    """

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 max_wave_warps: int = DEFAULT_MAX_WAVE_WARPS,
                 max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
                 workers: int = 1,
                 checkpoint_dir: str | None = None,
                 journal_path: str | None = None,
                 recover: bool = False,
                 default_deadline_s: float = DEFAULT_DEADLINE_S,
                 wave_retries: int = 2,
                 drain_timeout_s: float | None = None,
                 breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
                 fault_plan: FaultPlan | None = None,
                 seed: int = 0,
                 journal_fsync: bool = True) -> None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if recover and journal_path is None:
            raise ReproError("recover=True requires a journal_path")
        fireable = WAVE_FAULT_KINDS | CHECKPOINT_FAULT_KINDS
        for spec in fault_plan.faults if fault_plan is not None else ():
            if spec.kind not in fireable:
                raise ReproError(
                    f"fault kind {spec.kind.value!r} never fires in the "
                    "service; a serve plan takes "
                    f"{sorted(kind.value for kind in fireable)}")
            if spec.launch is not None:
                raise ReproError(
                    "a launch-ordinal-scoped fault never fires in the "
                    "service; scope it by job fingerprint instead")
        self.admission = AdmissionControl(max_in_flight)
        self.shedder = LoadShedder(max_in_flight)
        self.supervisor = WaveSupervisor(
            self._execute_wave,
            default_deadline_s=default_deadline_s,
            retries=wave_retries,
            seed=seed,
            breaker=CircuitBreaker(threshold=breaker_threshold,
                                   cooldown_s=breaker_cooldown_s),
            injector=(FaultInjector(fault_plan)
                      if fault_plan is not None else None))
        self.batcher = CoalescingBatcher(
            self._dispatch, window_s=window_s,
            max_wave_warps=max_wave_warps,
            window_scale=lambda: self.shedder.window_scale(
                self.admission.in_flight),
            lanes=workers)
        self.workers = workers
        self.checkpoint_dir = checkpoint_dir
        self.journal_path = journal_path
        self.journal_fsync = journal_fsync
        self.recover = recover
        self.drain_timeout_s = drain_timeout_s
        self._store: CheckpointStore | None = None
        self._journal: JobJournal | None = None
        self._jobs: dict[str, JobRecord] = {}
        self._ids = itertools.count(1)
        self._pool: Executor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._wave_tasks: set[asyncio.Task] = set()
        self._clients: set[asyncio.Task] = set()
        self._draining = False
        self.completed = 0
        self.failed = 0
        self.resumed = 0
        self.recovered_finished = 0
        self.recovered_pending = 0
        self.recovery_torn = 0
        self.journal_write_errors = 0
        self.checkpoint_write_errors = 0
        self.prep_cache_hits = 0
        self.prep_cache_misses = 0

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and serve; returns the actual port (0 picks one)."""
        loop = asyncio.get_running_loop()
        if self.workers > 1:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        else:
            # A dedicated single-thread lane, NOT the default executor:
            # waves must run one at a time (the documented workers=1
            # semantics, and what the coalescing benchmark relies on for
            # a fair one-launch-per-job baseline), while checkpoint I/O
            # keeps the default executor to itself.
            self._pool = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="wave")
        if self.checkpoint_dir is not None:
            self._store = await loop.run_in_executor(
                None, lambda: CheckpointStore(self.checkpoint_dir,
                                              meta={"suite": "serve"}))
        recovered: JournalState | None = None
        if self.journal_path is not None:
            if self.recover:
                recovered = await loop.run_in_executor(
                    None, JobJournal.replay, self.journal_path)
            self._journal = await loop.run_in_executor(
                None, lambda: JobJournal(self.journal_path,
                                         fsync=self.journal_fsync))
        if recovered is not None:
            await self._recover(recovered)
        self._server = await asyncio.start_server(
            self._handle_client, host, port)
        return self._server.sockets[0].getsockname()[1]

    async def _recover(self, state: JournalState) -> None:
        """Re-seat every acknowledged job from a replayed journal.

        Jobs the journal saw finish come back from their checkpoints
        (``done``) or their recorded error (``failed``); anything
        acknowledged but unfinished — including jobs whose checkpoint
        went missing or corrupt in the crash — re-dispatches through the
        batcher. Admission is seated unconditionally: these jobs were
        already promised a result.
        """
        self.recovery_torn = state.torn
        if state.max_job_ordinal:
            self._ids = itertools.count(state.max_job_ordinal + 1)
        loop = asyncio.get_running_loop()
        for job_id, job in state.jobs.items():
            try:
                spec = spec_from_dict(job)
            except ProtocolError:
                continue  # a damaged submit record cannot be re-seated
            record = JobRecord(spec=spec, recovered=True,
                               submitted_at=loop.time())
            self._jobs[job_id] = record
            self.admission.admit()
            if job.get("phase") == "finish" and job.get("status") == "failed":
                record.error = job.get("error")
                record.payload = {"ok": False, "error": record.error}
                self._finish(record, JobStatus.FAILED)
                self.recovered_finished += 1
                continue
            if await self._try_resume(record):
                self.recovered_finished += 1
                continue
            # acknowledged but not durably finished: run it (again)
            self.recovered_pending += 1
            await self.batcher.submit(spec)

    async def stop(self, drain_timeout_s: float | None = None) -> bool:
        """Drain, journal the final state, close the server.

        New submits are refused with 503 the moment draining starts.
        The drain (launch every pending bucket as lanes free + await
        in-flight waves) is bounded by ``drain_timeout_s`` (falling back
        to the constructor default; ``None`` drains without bound). Returns ``True`` when
        the drain completed, ``False`` when the bound expired with work
        still in flight or still waiting for a lane — which the journal
        records, so a later ``--recover`` re-dispatches the abandoned
        jobs.
        """
        self._draining = True
        timeout = (drain_timeout_s if drain_timeout_s is not None
                   else self.drain_timeout_s)
        drained = True
        try:
            if timeout is not None:
                await asyncio.wait_for(self._drain(), timeout)
            else:
                await self._drain()
        except asyncio.TimeoutError:
            drained = False
        if self._journal is not None:
            await self._journal_append("shutdown", drained=drained)
            journal, self._journal = self._journal, None
            await asyncio.get_running_loop().run_in_executor(
                None, journal.close)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._clients):
            task.cancel()
        if self._clients:
            await asyncio.gather(*list(self._clients),
                                 return_exceptions=True)
        if self._pool is not None:
            # an expired drain must not hang shutdown on a stuck wave
            self._pool.shutdown(wait=drained, cancel_futures=not drained)
            self._pool = None
        return drained

    async def _drain(self) -> None:
        await self.batcher.flush_all()
        while self._wave_tasks:
            await asyncio.gather(*list(self._wave_tasks),
                                 return_exceptions=True)

    # ------------------------------------------------------------------
    # job flow

    async def submit(self, body: dict) -> tuple[int, dict]:
        """Admit, journal, fingerprint, resume-or-enqueue one submission."""
        if self._draining:
            return 503, {"error": "service is draining, submit elsewhere"}
        budget = self.shedder.admission_budget(
            self.supervisor.breaker.open_keys())
        if not self.admission.try_admit(budget):
            return 429, {"error": "service at capacity, retry later",
                         **self.admission.stats()}
        job_id = f"j{next(self._ids)}"
        try:
            spec = parse_job_request(body, job_id=job_id)
            record = JobRecord(
                spec=spec, submitted_at=asyncio.get_running_loop().time())
            self._jobs[job_id] = record
            # durability before acknowledgement: the 202 below promises
            # the job will survive a crash, so the submit record hits
            # disk first
            await self._journal_append("submit", **spec_to_dict(spec))
        except BaseException as exc:
            # not acknowledged: nothing later gives the slot back, and
            # nothing may be left to poll
            self._jobs.pop(job_id, None)
            self.admission.release()
            if isinstance(exc, ProtocolError):
                return 400, {"error": str(exc)}
            if isinstance(exc, (OSError, JournalError)):
                # a promise the service cannot make: refuse
                self.journal_write_errors += 1
                return 503, {"error": f"journal write failed: {exc}"}
            raise
        resumed = await self._try_resume(record)
        if not resumed:
            await self.batcher.submit(spec)
        return 202, record.status_body()

    async def _journal_append(self, op: str, **data) -> None:
        if self._journal is None:
            return
        await asyncio.get_running_loop().run_in_executor(
            None, functools.partial(self._journal.append, op, **data))

    async def _journal_finish(self, record: JobRecord, **data) -> None:
        """Journal a finished job. A failed write is not the job's
        failure: without the record ``--recover`` re-seats the job, and
        its checkpoint (or a re-run) finishes it again."""
        try:
            await self._journal_append("finish", job_id=record.spec.job_id,
                                       status=record.status.value, **data)
        except (OSError, JournalError):
            self.journal_write_errors += 1

    async def _try_resume(self, record: JobRecord) -> bool:
        """Complete a job from its fingerprint checkpoint, if present."""
        if self._store is None:
            return False
        spec = record.spec
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                None, self._store.load_named,
                f"job-{spec.fingerprint}", spec.options.k_schedule[-1])
        except CheckpointError:
            return False  # configuration mismatch: recompute
        if result is None:
            return False  # missing — or corrupt and quarantined
        record.payload = {"ok": True, "result": result}
        record.resumed = True
        self.resumed += 1
        self._finish(record, JobStatus.DONE)
        await self._journal_finish(record, resumed=True)
        return True

    def _dispatch(self, key: tuple, jobs: list[JobSpec]) -> None:
        """Batcher callback, one lane held: run the wave as a task."""
        if self._pool is None:
            # stopped on an expired drain: there is no executor left to
            # run on, and the journal keeps these jobs for --recover
            return
        task = asyncio.get_running_loop().create_task(
            self._run_wave(key, jobs))
        self._wave_tasks.add(task)
        task.add_done_callback(self._wave_tasks.discard)

    async def _run_wave(self, key: tuple, jobs: list[JobSpec]) -> None:
        """Supervise one wave in its lane, then scatter results back."""
        try:
            for spec in jobs:
                self._jobs[spec.job_id].status = JobStatus.RUNNING
            await self._journal_append("dispatch",
                                       job_ids=[s.job_id for s in jobs])
            payloads = await self.supervisor.run(key, jobs)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # the supervisor absorbs wave failures; this is the backstop
            # for bugs in the supervision path itself (and for a failed
            # dispatch-journal write, which fails the wave's jobs)
            payloads = [{"ok": False, "error": str(exc),
                         "error_type": type(exc).__name__}
                        for _ in jobs]
        finally:
            # the lane goes back before the per-job persistence below:
            # the next wave computes while this one checkpoints
            self.batcher.release_lane()
        for spec, payload in zip(jobs, payloads):
            record = self._jobs[spec.job_id]
            record.payload = payload
            if payload.get("ok"):
                profile = payload["result"]["profile"]
                self.prep_cache_hits += profile["prep_cache_hits"]
                self.prep_cache_misses += profile["prep_cache_misses"]
                await self._save_checkpoint(record)
                self._finish(record, JobStatus.DONE)
            else:
                record.error = payload.get("error")
                self._finish(record, JobStatus.FAILED)
            await self._journal_finish(record, error=record.error)

    async def _execute_wave(self, jobs: list[JobSpec]) -> list[dict]:
        """The supervisor's executor dispatch (retried / bisected there)."""
        wave = {"jobs": [spec_to_dict(s) for s in jobs]}
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._pool, run_wave, wave)
        except BrokenExecutor:
            # the pool is dead with the worker; stand up a fresh one so
            # the supervisor's bisection has somewhere to re-run
            self._rebuild_pool()
            raise

    def _rebuild_pool(self) -> None:
        if self.workers <= 1:
            return  # a thread lane survives worker exceptions
        old, self._pool = self._pool, ProcessPoolExecutor(
            max_workers=self.workers)
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)

    async def _save_checkpoint(self, record: JobRecord) -> None:
        """Persist a computed job's result body, as the job's poll body
        carries it. A failed write is not the job's failure: the job
        completes un-checkpointed and a resubmission recomputes it."""
        if self._store is None:
            return
        spec = record.spec
        injector = self.supervisor.injector
        fault = (injector.checkpoint_fault(spec.fingerprint)
                 if injector is not None else None)
        if fault is not None and fault.kind is FaultKind.SLOW_DISK:
            await asyncio.sleep(fault.delay_s)
        loop = asyncio.get_running_loop()
        try:
            path = await loop.run_in_executor(
                None, self._store.save, f"job-{spec.fingerprint}",
                spec.options.k_schedule[-1], record.payload["result"])
        except OSError:
            self.checkpoint_write_errors += 1
            return
        if fault is not None and fault.kind is FaultKind.CHECKPOINT_CORRUPTION:
            # damage lands after the atomic write: modeled bit rot. The
            # next resume CRC-checks, quarantines, and recomputes.
            await loop.run_in_executor(None, corrupt_file, path)

    def _finish(self, record: JobRecord, status: JobStatus) -> None:
        record.status = status
        record.finished_at = asyncio.get_running_loop().time()
        if status is JobStatus.DONE:
            self.completed += 1
        else:
            self.failed += 1
        self.admission.release()

    # ------------------------------------------------------------------
    # HTTP plumbing

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
            task.add_done_callback(self._clients.discard)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    # the byte stream is out of frame: answer once, close
                    await self._respond(writer, 400, {"error": str(exc)},
                                        keep_alive=False)
                    break
                if request is None:
                    break
                await self._respond(writer, *await self._route(*request))
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # stop() may cancel a handler that is already draining
                # its closed transport; that is a clean exit, not noise
                pass

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: dict, keep_alive: bool = True) -> None:
        writer.write(frame_message(status_line(status),
                                   json.dumps(payload).encode(), keep_alive))
        await writer.drain()

    async def _route(self, method: str, path: str,
                     body: bytes) -> tuple[int, dict]:
        if method == "POST" and path == "/v1/jobs":
            try:
                parsed = json.loads(body or b"{}")
            except ValueError as exc:  # not JSON, or not UTF-8
                return 400, {"error": f"bad JSON body: {exc}"}
            return await self.submit(parsed)
        if method == "GET" and path == "/v1/stats":
            return 200, self.stats()
        if method == "GET" and path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, tail = rest.partition("/")
            record = self._jobs.get(job_id)
            if record is None:
                return 404, {"error": f"unknown job {job_id!r}"}
            if tail == "":
                return 200, record.status_body()
            if tail == "result":
                if record.status is JobStatus.DONE:
                    return 200, record.payload
                if record.status is JobStatus.FAILED:
                    return 200, record.payload or {
                        "ok": False, "error": record.error}
                return 409, {"error": "job still pending",
                             **record.status_body()}
        return 404, {"error": f"no route for {method} {path}"}

    def stats(self) -> dict:
        open_keys = self.supervisor.breaker.open_keys()
        body = {
            "admission": self.admission.stats(),
            "batcher": self.batcher.stats(),
            "jobs": {"completed": self.completed, "failed": self.failed,
                     "resumed": self.resumed, "known": len(self._jobs)},
            # summed over computed jobs' profiles: ``misses`` is the
            # flattens their schedules made, ``hits`` stays 0 (schema)
            "prep_cache": {"hits": self.prep_cache_hits,
                           "misses": self.prep_cache_misses},
            "workers": self.workers,
            "supervisor": self.supervisor.stats(),
            "shed": self.shedder.stats(self.admission.in_flight, open_keys),
            "draining": self._draining,
        }
        if self.journal_path is not None:
            body["journal"] = {
                "path": str(self.journal_path),
                "appends": (self._journal.appends
                            if self._journal is not None else 0),
                "recovered_finished": self.recovered_finished,
                "recovered_pending": self.recovered_pending,
                "recovery_torn": self.recovery_torn,
                "write_errors": self.journal_write_errors,
            }
        if self._store is not None:
            body["checkpoints"] = {
                "quarantined": len(self._store.quarantined),
                "write_errors": self.checkpoint_write_errors}
        return body


async def serve_forever(host: str, port: int,
                        drain_timeout_s: float | None = None,
                        **kwargs) -> None:
    """CLI entry: run an :class:`AssemblyService` until signalled.

    SIGTERM and SIGINT both trigger a graceful stop: refuse new submits
    with 503, drain in-flight waves (bounded by ``drain_timeout_s``),
    journal the final state, then exit.
    """
    service = AssemblyService(**kwargs)
    bound = await service.start(host, port)
    print(f"repro serve: listening on http://{host}:{bound} "
          f"(window={service.batcher.window_s * 1000:g}ms, "
          f"high-water={service.batcher.max_wave_warps} warps, "
          f"workers={service.workers})", flush=True)
    stopper = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stopper.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # platforms without loop signal handlers
    try:
        await stopper.wait()
    finally:
        drained = await service.stop(drain_timeout_s)
        print(f"repro serve: stopped "
              f"({'drained' if drained else 'drain timed out'})",
              flush=True)


__all__ = ["AssemblyService", "JobRecord", "serve_forever"]
