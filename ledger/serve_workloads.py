"""The two service workloads: ``serve_steady`` and ``serve_backlog``.

The program under test is ``python -m repro serve`` in its own process,
durable (journal + checkpoints), all other flags at their defaults, on a
CPU of its own (``cpus.py``). Load comes from this one process, on the
other CPU, over exactly two keep-alive connections: a submitter and a
poller (5 ms cadence).

* ``serve_steady`` is an **open loop**: seeded Poisson arrivals at
  5 jobs/s, each job timed from the instant it was *due*, so a stall
  charges every request queued behind it; how late the generator itself
  ran is reported (``service.generator_lag_p99_ms``).
* ``serve_backlog`` dumps 192 distinct jobs, one every 30 ms — about
  twice what the single wave lane completes — so a backlog stands until
  the end; the dump is over when all are ``done``. The server is then
  killed with ``SIGKILL`` and restarted with ``--recover``. The gap is
  kept to the previous *send*, never made up for: submitted back-to-back
  (or catching up after a slow reply), millisecond jitter of the submit
  round trip decides how many jobs share a 10 ms window, and with it how
  long the same dump takes.

A traced run drives ``traced_server.py`` — the same server with the
ledger's hooks installed — with the same load.
"""

from __future__ import annotations

import collections
import contextlib
import http.client
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import cpus
import tracing
from engine_workloads import digest, profile_counts

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

K_SCHEDULE = (21, 33)
JOB_SHAPE = dict(contig_length=150, flank_length=60, read_length=80,
                 depth=6, seed_window=40)
#: Contigs per job cycle through this multiset (seeded order), so every
#: seed offers the same total work.
JOB_CONTIGS = (2, 3, 4, 5, 6, 7, 8)

STEADY_RATE = 5.0          # jobs/s offered
RESUBMIT_EVERY = 5         # one arrival in five repeats an earlier job
RESUBMIT_AGE_S = 2.5       # ... that was due at least this long before
BACKLOG_JOBS = 192         # one dump; ~100 stand in flight at its peak
BACKLOG_GAP_S = 0.030      # between submissions: 3x the window, so waves stay solo

POLL_S = 0.005
HTTP_TIMEOUT_S = 10.0
JOB_TIMEOUT_S = 30.0
START_TIMEOUT_S = 30.0
CHECK_EVERY = 10           # fresh jobs recomputed directly: one in ten


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


class Job:
    """One generated request and everything observed about it."""

    def __init__(self, index: int, contigs: list, body: bytes) -> None:
        self.index = index
        self.contigs = contigs
        self.body = body
        self.original: Job | None = None   # set on a resubmission
        #: ``origin`` is where the job's latency starts: its due time, or
        #: — in a dump — the instant the dump began.
        self.origin = self.due = self.sent = self.acked = self.done = 0.0
        self.job_id: str | None = None
        self.resumed = False
        self.payload: dict | None = None
        self.result_bytes = 0
        self.error: str | None = None

    @property
    def n_contigs(self) -> int:
        return len((self.original or self).contigs)


def make_jobs(n: int, seed: int) -> list[Job]:
    """``n`` distinct small jobs; contig counts permute ``JOB_CONTIGS``."""
    import numpy as np
    from repro.genomics.io import dumps_dat
    from repro.genomics.simulate import (ErrorProfile, ScenarioSpec,
                                         simulate_batch)

    rng = np.random.default_rng(seed)
    # shuffled within each cycle, not across the run: every stretch of
    # the load then carries the same work whatever the seed
    sizes = [int(s) for _ in range(0, n, len(JOB_CONTIGS))
             for s in rng.permutation(JOB_CONTIGS)][:n]
    spec, errors = ScenarioSpec(**JOB_SHAPE), ErrorProfile(error_rate=0.005)
    jobs = []
    for i, size in enumerate(sizes):
        contigs = [sc.contig for sc in simulate_batch(size, spec, rng, errors)]
        body = json.dumps({"dat": dumps_dat(contigs),
                           "k_schedule": list(K_SCHEDULE)}).encode()
        jobs.append(Job(i, contigs, body))
    return jobs


def steady_schedule(seconds: float, seed: int) -> tuple[list[Job], list[float]]:
    """Arrivals of a Poisson process of rate ``STEADY_RATE`` over
    ``seconds``, conditioned on its expected count (sorted uniforms), so
    every seed offers the same number of jobs. Every fifth arrival —
    where an old enough original exists — is a byte-identical
    resubmission."""
    import numpy as np

    rng = np.random.default_rng(seed + 1)
    n = max(2, round(STEADY_RATE * seconds))
    arrivals = sorted(rng.uniform(0.0, seconds, size=n).tolist())
    # a slot repeats only if some earlier arrival is old enough to repeat
    repeats = {i for i in range(RESUBMIT_EVERY - 1, n, RESUBMIT_EVERY)
               if arrivals[0] <= arrivals[i] - RESUBMIT_AGE_S}
    fresh = iter(make_jobs(n - len(repeats), seed))
    jobs: list[Job] = []
    for i, t in enumerate(arrivals):
        if i in repeats:
            old = [j for j, due in zip(jobs, arrivals)
                   if j.original is None and due <= t - RESUBMIT_AGE_S]
            original = old[int(rng.integers(len(old)))]
            job = Job(i, [], original.body)
            job.original = original
        else:
            job = next(fresh)
            job.index = i
        jobs.append(job)
    return jobs, arrivals


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class Server:
    """``repro serve`` (or its traced twin) as a child process."""

    def __init__(self, workdir: str, trace_path: str | None = None) -> None:
        self.workdir = workdir
        #: Where the traced twin writes its spans; ``None`` runs the plain
        #: ``python -m repro serve``.
        self.trace_path = trace_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, recover: bool = False) -> float:
        """Start; returns seconds until the port line was printed."""
        t0 = time.perf_counter()
        entry = ([os.path.join(HERE, "traced_server.py"), self.trace_path]
                 if self.trace_path else ["-m", "repro"])
        cmd = [sys.executable, *entry, "serve", "--port", "0",
               "--journal", os.path.join(self.workdir, "j.log"),
               "--checkpoint-dir", os.path.join(self.workdir, "ck")]
        if recover:
            cmd.append("--recover")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p)
        self._stderr = open(os.path.join(self.workdir, "server.stderr"), "ab")
        cpus.pin("server")  # the child inherits it; see cpus.py
        try:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                         stderr=self._stderr, env=env,
                                         cwd=REPO)
        finally:
            cpus.pin("load")
        deadline = t0 + START_TIMEOUT_S
        line = b""
        while b"listening on" not in line:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.perf_counter()))
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                with open(self._stderr.name, "rb") as fh:
                    tail = fh.read()[-2000:].decode(errors="replace")
                self.kill()
                raise RuntimeError(
                    f"repro serve did not print its port:\n{tail}")
        self.port = int(re.search(rb"http://[^:]+:(\d+)", line).group(1))
        return time.perf_counter() - t0

    def usage(self) -> tuple[float, float]:
        """(CPU seconds so far, peak RSS in MB) from ``/proc``."""
        pid = self.proc.pid
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        with open(f"/proc/{pid}/status") as fh:
            hwm = next(line for line in fh if line.startswith("VmHWM"))
        return cpu, int(hwm.split()[1]) / 1024

    def dump_trace(self, keep_as: str) -> dict:
        """Ask the traced server for its spans (``SIGUSR1``), move the file
        to ``keep_as`` (the next dump would overwrite it) and read it."""
        if os.path.exists(self.trace_path):
            os.remove(self.trace_path)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + HTTP_TIMEOUT_S
        while (not os.path.exists(self.trace_path)
               and time.perf_counter() < deadline):
            time.sleep(0.01)
        os.replace(self.trace_path, keep_as)
        with open(keep_as) as fh:
            return json.load(fh)

    def read_trace(self) -> dict:
        with open(self.trace_path) as fh:
            return json.load(fh)

    def stop(self) -> None:
        """Graceful stop (drains, closes the journal); kill on a hang."""
        if self.proc is None or self.proc.poll() is not None:
            return self._reap()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=HTTP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
        self._reap()

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        if self.proc is not None:
            self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
            self._stderr.close()


@contextlib.contextmanager
def fresh_workdir(label: str):
    """A fresh directory under ``ledger/out`` (the benchmark may write
    only inside its checkout), removed on exit."""
    path = os.path.join(HERE, "out", f"tmp-{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------


class Connection:
    """One keep-alive connection; times every call, survives errors."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None
        self.rtts: dict[str, list[float]] = collections.defaultdict(list)
        self.errors = 0

    def call(self, kind: str, method: str, path: str,
             body: bytes | None = None) -> tuple[int, dict, int]:
        """(status, JSON body, body bytes); status 0 on a transport error
        or timeout, which is counted and never raised."""
        t0 = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)
            self.conn.request(method, path, body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
            out = response.status, json.loads(data or b"{}"), len(data)
        except (OSError, http.client.HTTPException, ValueError):
            self.errors += 1
            self.close()
            return 0, {}, 0
        self.rtts[kind].append(time.perf_counter() - t0)
        return out

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Load:
    """Submit ``jobs`` at their ``arrivals`` offsets on one connection
    while a second one polls them to completion, oldest first (the lane
    is FIFO, so the oldest unfinished job is the next to finish).

    ``dumped``: the caller handed all jobs over at once and ``arrivals``
    only paces the wire, so every latency runs from the start of the load.
    (Timed from its paced slot instead, a backlogged job's latency is the
    small difference of two large numbers, and a 5 % change in throughput
    moves it by 8 %.)"""

    def __init__(self, port: int, jobs: list[Job], arrivals: list[float],
                 dumped: bool) -> None:
        self.jobs = jobs
        self.arrivals = arrivals
        self.dumped = dumped
        self.submitter = Connection(port)
        self.poller = Connection(port)
        self.pending: collections.deque[Job] = collections.deque()
        self.lock = threading.Lock()
        self.submitted = threading.Event()
        self.wall = 0.0

    def run(self) -> None:
        t0 = time.perf_counter()
        poll = threading.Thread(target=self._poll, name="poller")
        poll.start()
        try:
            self._submit(t0)
        finally:
            self.submitted.set()
            poll.join()
            self.submitter.close()
            self.poller.close()
        self.wall = max(j.done for j in self.jobs) - t0

    def _submit(self, t0: float) -> None:
        for i, job in enumerate(self.jobs):
            job.due = t0 + self.arrivals[i]
            if self.dumped and i:
                # a dump has no schedule to catch up with: keep the gap to
                # the previous send, or late jobs would share its window
                gap = self.arrivals[i] - self.arrivals[i - 1]
                job.due = max(job.due, self.jobs[i - 1].sent + gap)
            job.origin = t0 if self.dumped else job.due
            delay = job.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            job.sent = time.perf_counter()
            status, body, _ = self.submitter.call("submit", "POST",
                                                  "/v1/jobs", job.body)
            job.acked = time.perf_counter()
            if status != 202:
                job.error = f"submit refused: HTTP {status} {body.get('error')}"
                job.done = job.acked
                continue
            job.job_id = body["job_id"]
            job.resumed = bool(body.get("resumed"))
            if body.get("status") == "done":  # resumed from its checkpoint
                job.done = job.acked
            with self.lock:
                self.pending.append(job)

    def _poll(self) -> None:
        while True:
            done = self.submitted.is_set()  # read before looking at the queue
            with self.lock:
                head = self.pending[0] if self.pending else None
            if head is None:
                if done:
                    return
            elif self._settled(head):
                continue  # the next one may be done too: no sleep
            time.sleep(POLL_S)

    def _settled(self, job: Job) -> bool:
        """Poll one job; True once it left the queue (done or given up)."""
        status, body, _ = self.poller.call("poll", "GET",
                                           f"/v1/jobs/{job.job_id}")
        now = time.perf_counter()
        state = body.get("status")
        if state == "done":
            job.resumed = job.resumed or bool(body.get("resumed"))
            job.done = job.done or now
            status, payload, size = self.poller.call(
                "result", "GET", f"/v1/jobs/{job.job_id}/result")
            if status == 200 and payload.get("ok"):
                job.payload, job.result_bytes = payload, size
            else:
                job.error = f"result fetch failed: HTTP {status}"
        elif state == "failed":
            job.done, job.error = now, f"job failed: {body.get('error')}"
        elif now - job.sent > JOB_TIMEOUT_S:
            job.done, job.error = now, f"timed out after {JOB_TIMEOUT_S:g} s"
        else:
            return False
        with self.lock:
            self.pending.remove(job)
        return True

    def rtts(self, kind: str) -> list[float]:
        return self.submitter.rtts[kind] + self.poller.rtts[kind]


def fetch_all(port: int, jobs: list[Job], timeout_s: float) -> tuple[float, int]:
    """Poll until every job reports ``done`` again (after ``--recover``);
    returns (seconds, jobs whose payload differs from before the kill)."""
    t0 = time.perf_counter()
    conn = Connection(port)
    waiting = [j for j in jobs if j.job_id is not None and j.error is None]
    try:
        while waiting and time.perf_counter() - t0 < timeout_s:
            still = []
            for job in waiting:
                _, body, _ = conn.call("poll", "GET", f"/v1/jobs/{job.job_id}")
                if body.get("status") != "done":
                    still.append(job)
            waiting = still
            if waiting:
                time.sleep(POLL_S)
        seconds = time.perf_counter() - t0
        wrong = len(waiting)
        for job in sample(jobs):
            if job in waiting or job.payload is None:
                continue
            _, payload, _ = conn.call("result", "GET",
                                      f"/v1/jobs/{job.job_id}/result")
            wrong += payload.get("result") != job.payload["result"]
    finally:
        conn.close()
    return seconds, wrong


# ----------------------------------------------------------------------
# checks and statistics
# ----------------------------------------------------------------------


def sample(jobs: list[Job]) -> list[Job]:
    """Every tenth fresh job (job order is already seeded)."""
    return [j for j in jobs if j.original is None][::CHECK_EVERY]


def check_payloads(jobs: list[Job]) -> int:
    """Jobs that failed, were refused, timed out or returned a wrong
    payload. A sample of fresh jobs is recomputed directly; every
    resubmission must have resumed and must equal its original."""
    from repro.core.extension import PRODUCTION_POLICY
    from repro.kernels import backend_for_device
    from repro.simt.device import A100

    failed = {j.index for j in jobs if j.error is not None}
    for job in sample(jobs):
        if job.payload is None:
            continue
        kernel = backend_for_device(A100, policy=PRODUCTION_POLICY,
                                    overflow_policy="drop-contig")
        want = kernel.run_schedule(job.contigs, K_SCHEDULE)
        got = job.payload["result"]
        for side in ("right", "left"):
            expect = [[bases, state.value] for bases, state in getattr(want, side)]
            if got[side] != expect:
                failed.add(job.index)
    for job in jobs:
        if job.original is not None and job.payload is not None:
            original = job.original.payload
            if (not job.resumed or original is None
                    or job.payload["result"] != original["result"]):
                failed.add(job.index)
    return len(failed)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (no interpolation past the sample)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def ms(values: list[float], p: float = 0.5) -> float:
    return 1e3 * percentile(values, p) if values else 0.0


# ----------------------------------------------------------------------
# one phase = one server lifetime
# ----------------------------------------------------------------------


class Phase:
    """One server, one load, and what was observed from outside."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.load: Load | None = None
        self.jobs: list[Job] = []
        self.cpu_s = self.rss_mb = 0.0
        self.stats: dict = {}
        self.failed = 0
        self.recover_s = 0.0
        self.journal_bytes = 0
        self.checkpoint_bytes: list[int] = []
        self.traces: list[dict] = []

    def run(self, server: Server, jobs: list[Job], arrivals: list[float],
            backlog: bool) -> None:
        """Drive a started server with one load. ``backlog``: the load is
        a dump, and the server is killed and recovered after it."""
        cpu0, _ = server.usage()
        self.jobs = jobs
        self.load = Load(server.port, jobs, arrivals, dumped=backlog)
        self.load.run()
        cpu1, self.rss_mb = server.usage()
        self.cpu_s = cpu1 - cpu0
        probe = Connection(server.port)
        _, self.stats, _ = probe.call("stats", "GET", "/v1/stats")
        probe.close()
        self.failed = check_payloads(self.jobs)
        self.journal_bytes = os.path.getsize(
            os.path.join(server.workdir, "j.log"))
        ck = os.path.join(server.workdir, "ck")
        self.checkpoint_bytes = [
            os.path.getsize(os.path.join(ck, name))
            for name in os.listdir(ck) if name.startswith("job-")]
        if backlog:
            if self.traced:
                self.traces.append(server.dump_trace(
                    server.trace_path.replace(".json", ".prekill.json")))
            server.kill()
            restart_s = server.start(recover=True)
            done_s, wrong = fetch_all(server.port, self.jobs, JOB_TIMEOUT_S)
            self.recover_s = restart_s + done_s
            self.failed += wrong
        server.stop()
        if self.traced:
            self.traces.append(server.read_trace())

    # -- what a caller sees --------------------------------------------

    def fresh(self) -> list[Job]:
        return [j for j in self.jobs if j.original is None and j.error is None]

    def latencies(self, jobs: list[Job]) -> list[float]:
        return [j.done - j.origin for j in jobs]

    def end_to_end(self) -> dict:
        done = [j for j in self.jobs if j.error is None]
        contigs = sum(j.n_contigs for j in done)
        fresh = self.latencies(self.fresh())
        return {
            "contigs_per_s": contigs / self.load.wall,
            "cpu_ms_per_contig": 1e3 * self.cpu_s / contigs,
            "latency_p50_ms": ms(fresh, 0.5),
            "peak_rss_mb": self.rss_mb,
        }

    def outside_layers(self) -> dict:
        """Per-layer numbers that need no hook: client-side timing of
        every HTTP call, ``/v1/stats``, file sizes."""
        rtts = self.load.rtts
        lag = [j.sent - j.due for j in self.jobs]
        resubmits = [j for j in self.jobs
                     if j.original is not None and j.error is None]
        stats = self.stats
        batcher = stats.get("batcher", {})
        supervisor = stats.get("supervisor", {})
        cache = stats.get("prep_cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        waves = batcher.get("waves", 0)
        sizes = [j.result_bytes for j in self.jobs if j.result_bytes]
        out = {
            "service.jobs_per_s": (len([j for j in self.jobs if not j.error])
                                   / self.load.wall),
            "service.submit_rtt_p50_ms": ms(rtts("submit")),
            "service.poll_rtt_p50_ms": ms(rtts("poll")),
            "service.result_rtt_p50_ms": ms(rtts("result")),
            "service.result_bytes_mean": statistics.fmean(sizes) if sizes else 0.0,
            "service.generator_lag_p99_ms": ms(lag, 0.99),
            # p90: the highest percentile with >= 10 samples beyond it at
            # the 100 fresh jobs a run is guaranteed to hold
            "service.job_latency_p90_ms": ms(self.latencies(self.fresh()), 0.9),
            "service.resubmit_latency_p50_ms": ms(self.latencies(resubmits)),
            "service.recover_s": self.recover_s,
            "journal.appends": stats.get("journal", {}).get("appends", 0),
            "journal.bytes": self.journal_bytes,
            "checkpoint.bytes_mean": (statistics.fmean(self.checkpoint_bytes)
                                      if self.checkpoint_bytes else 0.0),
            "batcher.waves": waves,
            "batcher.mean_wave_jobs": (batcher.get("jobs_waved", 0) / waves
                                       if waves else 0.0),
            "batcher.biggest_wave": batcher.get("biggest_wave", 0),
            "supervisor.retries": supervisor.get("transient_retries", 0),
            "supervisor.bisections": supervisor.get("bisections", 0),
            "admission.rejected": stats.get("admission", {}).get("rejected", 0),
            "worker.prep_cache_hit_ratio": (cache.get("hits", 0) / lookups
                                            if lookups else 0.0),
        }
        profiles = [j.payload["result"]["profile"] for j in self.fresh()
                    if j.payload is not None]
        out.update(profile_counts(profiles))
        return out


# ----------------------------------------------------------------------
# span analysis of a traced phase
# ----------------------------------------------------------------------


def traced_layers(phase: Phase) -> dict:
    """Per-layer times from the traced server's spans.

    Engine layers are summed self times over the phase (seconds); service
    layers are medians per call (ms). Each fresh job's latency is also cut
    into consecutive named segments — what is left over is reported as
    ``trace.unattributed_frac``.
    """
    spans = [s for trace in phase.traces for s in trace["spans"]]
    # the pre-kill dump and the final dump of a recovered server are two
    # processes: ids restart, so self times are computed per dump
    own: dict[str, float] = {}
    for trace in phase.traces:
        for name, secs in tracing.self_times(trace["spans"]).items():
            own[name] = own.get(name, 0.0) + secs
    by_name: dict[str, list[dict]] = collections.defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    dur = lambda s: s["end"] - s["start"]
    durations = lambda name: [dur(s) for s in by_name[name]]
    total = lambda name: sum(durations(name))

    out = {f"{name}_s": own.get(name, 0.0) for name in tracing.ENGINE_SPANS}
    counts: dict[str, float] = {}
    minima: list[float] = []
    for trace in phase.traces:
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        minima += [trace["minima"].get("shed.min_window_scale", 1.0)]
    for name in tracing.ENGINE_COUNTS:
        out[name] = counts.get(name, 0)
    out["events.emitted"] = len(by_name["events.subscribers"])
    out["shed.min_window_scale"] = min(minima, default=1.0)

    out["protocol.parse_ms"] = ms(durations("protocol.parse"))
    out["io.loads_dat_ms"] = ms(durations("io.loads_dat"))
    out["protocol.encode_ms"] = ms(durations("protocol.encode"))
    out["journal.append_ms"] = ms(durations("journal.append"))
    out["journal.replay_s"] = total("journal.replay")
    out["checkpoint.save_ms"] = ms(durations("checkpoint.save"))
    out["checkpoint.load_ms"] = ms(durations("checkpoint.load"))
    out["worker.run_wave_ms"] = ms(durations("worker.run_wave"))
    out["supervisor.wave_ms"] = ms(durations("supervisor.run"))
    out["coalesce.run_s"] = total("coalesce.run")
    out["coalesce.fused_s"] = total("coalesce.fused")
    out["coalesce.replay_s"] = total("coalesce.replay")
    out["coalesce.replay_share"] = (out["coalesce.replay_s"]
                                    / out["coalesce.run_s"]
                                    if out["coalesce.run_s"] else 0.0)

    # per-wave and per-job timelines, joined on job id / fingerprint
    first = lambda tag: tag[0] if isinstance(tag, list) else tag
    wave_of = {first(s["tag"]): s for s in by_name["worker.run_wave"]}
    lane_wait = [dur(s) - dur(wave_of[first(s["tag"])])
                 for s in by_name["supervisor.run"]
                 if first(s["tag"]) in wave_of]
    out["supervisor.lane_wait_ms"] = ms(lane_wait)

    parse = {s["tag"]: s for s in by_name["protocol.parse"]}
    submit = {s["tag"][0]: s for s in by_name["batcher.submit"]}
    fingerprint = {s["tag"][0]: s["tag"][1] for s in by_name["batcher.submit"]}
    supervised = {job_id: s for s in by_name["supervisor.run"]
                  for job_id in s["tag"]}
    appended = {s["tag"][1]: s for s in by_name["journal.append"]
                if s["tag"][0] == "submit"}
    saved = {s["tag"]: s for s in by_name["checkpoint.save"]}
    loads = collections.defaultdict(list)
    for s in by_name["checkpoint.load"]:
        loads[s["tag"]].append(s)

    waits, http_in, detect, scatter, unattributed = [], [], [], [], []
    for job in phase.fresh():
        jid = job.job_id
        if not (jid in parse and jid in submit and jid in supervised
                and jid in appended):
            continue
        name = f"job-{fingerprint[jid]}"
        if name not in saved:
            continue
        sup, save = supervised[jid], saved[name]
        load = next((s for s in loads[name]
                     if s["start"] >= parse[jid]["end"]), None)
        wait = sup["start"] - submit[jid]["start"]
        waits.append(wait)
        http_in.append(parse[jid]["start"] - job.sent)
        detect.append(job.done - save["end"])
        scatter.append(save["start"] - sup["end"])
        named = ((job.sent - job.origin) + http_in[-1] + dur(parse[jid])
                 + dur(appended[jid]) + (dur(load) if load else 0.0) + wait
                 + dur(sup) + scatter[-1] + dur(save) + detect[-1])
        latency = job.done - job.origin
        unattributed.append((latency - named) / latency)
    out["batcher.wait_ms"] = ms(waits)
    out["service.http_in_ms"] = ms(http_in)
    out["service.poll_detect_ms"] = ms(detect)
    out["supervisor.scatter_wait_ms"] = ms(scatter)
    out["trace.unattributed_frac"] = (statistics.median(unattributed)
                                      if unattributed else 1.0)
    out["trace.spans"] = len(spans)
    out["trace.unresolved_hooks"] = len(
        {t for trace in phase.traces for t in trace["unresolved"]})
    return out


# ----------------------------------------------------------------------
# the two workloads
# ----------------------------------------------------------------------


class Prepared:
    """The generated load plus a started server in a fresh directory;
    ``close`` stops the server and removes the directory."""

    def __init__(self, workload: str, jobs: list[Job], arrivals: list[float],
                 traced: bool) -> None:
        self.jobs, self.arrivals = jobs, arrivals
        self.stack = contextlib.ExitStack()
        workdir = self.stack.enter_context(fresh_workdir(workload))
        trace_path = os.path.join(HERE, "out", f"{workload}.trace.json")
        self.server = Server(workdir, trace_path if traced else None)
        self.stack.callback(self.server.kill)
        try:
            self.start_s = self.server.start()
        except BaseException:
            self.stack.close()
            raise

    def close(self) -> None:
        self.stack.close()


def backlog_dump(seed: int, smoke: bool) -> tuple[list[Job], list[float]]:
    n = 8 if smoke else BACKLOG_JOBS
    return make_jobs(n, seed), [i * BACKLOG_GAP_S for i in range(n)]


def setup(workload: str, seed: int, seconds: float, trace: bool,
          smoke: bool) -> Prepared:
    """Imports + input generation + server start (until the port line)."""
    import repro.kernels  # noqa: F401  (the correctness check runs a kernel)
    if workload == "serve_steady":
        jobs, arrivals = steady_schedule(seconds, seed)
    else:
        jobs, arrivals = backlog_dump(seed, smoke)
    return Prepared(workload, jobs, arrivals, traced=trace)


def span_cost_s(n: int = 20000) -> float:
    """Seconds one recorded span costs, measured here and now."""
    tracer = tracing.Tracer()
    plain = lambda: None
    traced = tracer.wrap("calibration", plain)
    t0 = time.perf_counter()
    for _ in range(n):
        plain()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    return max(0.0, (time.perf_counter() - t1) - (t1 - t0)) / n


def serve(workload: str, prepared: Prepared, seed: int, seconds: float,
          trace: bool, smoke: bool) -> dict:
    backlog = workload == "serve_backlog"
    phase = Phase(traced=trace)
    phase.run(prepared.server, prepared.jobs, prepared.arrivals, backlog)
    result = {"attempted": len(phase.jobs), "failed": phase.failed,
              "metrics": phase.end_to_end(),
              "samples": {"jobs": len(phase.jobs),
                          "fresh_jobs": len(phase.fresh()),
                          "load_wall_s": phase.load.wall},
              "server_start_s": prepared.start_s,
              "sim_digest": digest([j.payload["result"]["profile"]
                                    for j in phase.fresh() if j.payload]),
              # a late generator invalidates open-loop latencies only: a
              # dump is paced by the server's own replies
              "generator_lag_p99_ms": 0.0 if backlog else ms(
                  [j.sent - j.due for j in phase.jobs], 0.99)}
    if trace:
        layers = phase.outside_layers()
        layers.update(traced_layers(phase))
        # computed, not measured: one traced load against one untraced
        # load differs by more than the cost of recording the spans
        layers["trace.overhead_frac"] = (layers["trace.spans"] * span_cost_s()
                                         / phase.cpu_s)
        result["metrics"] = layers
        result["unresolved"] = sorted(
            {t for dump in phase.traces for t in dump["unresolved"]})
    return result
