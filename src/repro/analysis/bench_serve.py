"""Serve-path benchmarks: coalesced waves vs one-launch-per-job.

Drives a real :class:`~repro.serve.AssemblyService` (bound to an
ephemeral port, spoken to over its actual HTTP protocol) with a swarm of
concurrent clients, each burst-submitting a batch of small jobs and then
polling them to completion. Every pinned scale is measured twice:

* **coalesced** — the service's default high-water mark: the first job
  of a burst takes the idle lane and the rest fuse into megabatch waves
  behind it;
* **solo** — ``max_wave_warps = 1``, the degenerate one-launch-per-job
  mode, which is exactly what a service without cross-request
  coalescing would do.

Both modes run the same job set on the same single-lane worker, so the
ratio of their request throughputs isolates the coalescing win. The
document written to ``BENCH_serve.json`` mirrors ``BENCH_engine.json``
(see :mod:`repro.analysis.bench`):

* **counters** — per-job result fingerprints (timing-free hashes of the
  full result payload). Deterministic for a pinned scale, gated by
  *exact equality* against the committed baseline; additionally the
  solo and coalesced runs must agree fingerprint-for-fingerprint
  *within* a run (multi-tenant parity, checked every collection).
* **coalesced / solo** — wall clock, requests/sec, p50/p99 job latency
  of the best-of-``repeats`` swarm, plus the wave counters of that run.
* **speedup** — coalesced over solo requests/sec, gated against the
  scale's pinned floor (lenient at the smoke scale, the tentpole's
  >= 3x acceptance floor at the full scale's 8 concurrent clients).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.analysis.bench import MAX_REGRESSION, BenchSuite, compare_documents
from repro.errors import ReproError
from repro.genomics.io import dumps_dat
from repro.genomics.simulate import ErrorProfile, ScenarioSpec, simulate_batch
from repro.serve import DEFAULT_MAX_WAVE_WARPS, AssemblyService
from repro.serve.http import frame_message, read_message

#: Format version of ``BENCH_serve.json``.
BENCH_SERVE_SCHEMA = 1

#: Default location of the serve bench baseline, relative to repo root.
DEFAULT_BENCH_SERVE_PATH = "BENCH_serve.json"

#: Client poll cadence while waiting on submitted jobs.
_POLL_S = 0.002


@dataclass(frozen=True)
class ServeScale:
    """One pinned load-generator configuration."""

    name: str
    clients: int
    jobs_per_client: int
    n_contigs: int
    k_schedule: tuple[int, ...]
    contig_length: int
    flank_length: int
    read_length: int
    depth: int
    seed_window: int
    min_speedup: float
    seed: int = 2024

    @property
    def total_jobs(self) -> int:
        return self.clients * self.jobs_per_client


#: CI-fast scale. The floor is lenient — at this size the fused wave is
#: barely bigger than a solo launch, so only "no slowdown" is asserted.
SMOKE = ServeScale(name="smoke", clients=4, jobs_per_client=3, n_contigs=3,
                   k_schedule=(21, 33), contig_length=120, flank_length=50,
                   read_length=70, depth=5, seed_window=40,
                   min_speedup=1.0)

#: Acceptance scale: >= 8 concurrent clients of small jobs must clear
#: the tentpole's >= 3x coalescing throughput floor.
FULL = ServeScale(name="full", clients=8, jobs_per_client=4, n_contigs=4,
                  k_schedule=(21, 33), contig_length=150, flank_length=60,
                  read_length=80, depth=6, seed_window=40,
                  min_speedup=3.0)

_SCALES = {s.name: s for s in (SMOKE, FULL)}


def serve_jobs(scale: ServeScale) -> list[tuple[str, str]]:
    """``[(key, dat_text)]`` — one distinct small dataset per job.

    Every job gets its own seeded scenario so fingerprints are unique
    (no accidental checkpoint/cache aliasing) and the coalesced and solo
    runs execute the identical byte stream.
    """
    spec = ScenarioSpec(contig_length=scale.contig_length,
                        flank_length=scale.flank_length,
                        read_length=scale.read_length,
                        depth=scale.depth,
                        seed_window=scale.seed_window)
    errors = ErrorProfile(error_rate=0.0, lo_quality_fraction=0.0)
    jobs: list[tuple[str, str]] = []
    for client in range(scale.clients):
        for j in range(scale.jobs_per_client):
            idx = client * scale.jobs_per_client + j
            rng = np.random.default_rng(scale.seed + idx)
            contigs = [sc.contig for sc in
                       simulate_batch(scale.n_contigs, spec, rng, errors)]
            jobs.append((f"c{client}j{j}", dumps_dat(contigs)))
    return jobs


class _HttpClient:
    """One persistent keep-alive connection speaking the serve protocol."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def __aenter__(self) -> _HttpClient:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port)
        return self

    async def __aexit__(self, *exc) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def request(self, method: str, path: str,
                      payload: dict | None = None) -> tuple[int, dict]:
        body = json.dumps(payload).encode() if payload is not None else b""
        self._writer.write(frame_message(f"{method} {path} HTTP/1.1", body))
        await self._writer.drain()
        message = await read_message(self._reader)
        if message is None:
            raise ReproError("serve bench: server closed the connection")
        status_line, data = message
        return int(status_line.split()[1]), json.loads(data or b"{}")


async def _client_task(port: int, scale: ServeScale,
                       jobs: list[tuple[str, str]]) -> list[tuple]:
    """Burst-submit ``jobs``, poll to completion, fetch every result.

    Returns ``[(key, latency_s, payload)]``; latency is submit-to-done
    as observed by the polling client (the number a caller would see).
    """
    loop = asyncio.get_running_loop()
    out: list[tuple] = []
    async with _HttpClient("127.0.0.1", port) as http:
        pending: dict[str, tuple[str, float]] = {}
        for key, dat in jobs:
            t0 = loop.time()
            status, body = await http.request(
                "POST", "/v1/jobs",
                {"dat": dat, "k_schedule": list(scale.k_schedule)})
            if status != 202:
                raise ReproError(
                    f"serve bench: submit of {key} got HTTP {status}: "
                    f"{body.get('error')}")
            pending[body["job_id"]] = (key, t0)
        while pending:
            for job_id in list(pending):
                _, body = await http.request("GET", f"/v1/jobs/{job_id}")
                if body["status"] not in ("done", "failed"):
                    continue
                key, t0 = pending.pop(job_id)
                latency = loop.time() - t0
                if body["status"] == "failed":
                    raise ReproError(
                        f"serve bench: job {key} failed: {body.get('error')}")
                _, payload = await http.request(
                    "GET", f"/v1/jobs/{job_id}/result")
                out.append((key, latency, payload))
            if pending:
                await asyncio.sleep(_POLL_S)
    return out


async def _swarm(scale: ServeScale, jobs: list[tuple[str, str]],
                 max_wave_warps: int) -> tuple[float, list[tuple], dict]:
    """One full client swarm against a fresh service; returns its run."""
    service = AssemblyService(max_wave_warps=max_wave_warps,
                             max_in_flight=max(256, 2 * scale.total_jobs))
    port = await service.start()
    try:
        m = scale.jobs_per_client
        t0 = time.perf_counter()
        per_client = await asyncio.gather(*[
            _client_task(port, scale, jobs[c * m:(c + 1) * m])
            for c in range(scale.clients)])
        wall = time.perf_counter() - t0
        stats = service.stats()
    finally:
        await service.stop()
    return wall, [r for client in per_client for r in client], stats


def _payload_fingerprint(payload: dict) -> str:
    """Timing-free identity of one job's full result payload."""
    canon = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()[:16]


def _measure(scale: ServeScale, jobs: list[tuple[str, str]],
             max_wave_warps: int, repeats: int) -> tuple[dict, dict]:
    """Best-of-``repeats`` swarm; returns (timing doc, payloads by key)."""
    best = None
    for _ in range(max(1, repeats)):
        run = asyncio.run(_swarm(scale, jobs, max_wave_warps))
        if best is None or run[0] < best[0]:
            best = run
    wall, results, stats = best
    latencies = np.array(sorted(lat for _, lat, _ in results))
    timing = {
        "wall_s": round(wall, 4),
        "requests_per_s": round(len(results) / wall, 2),
        "p50_latency_ms": round(float(np.percentile(latencies, 50)) * 1e3, 2),
        "p99_latency_ms": round(float(np.percentile(latencies, 99)) * 1e3, 2),
        "waves": stats["batcher"]["waves"],
        "biggest_wave": stats["batcher"]["biggest_wave"],
    }
    return timing, {key: payload for key, _, payload in results}


def run_serve_scale(scale: ServeScale, repeats: int = 2) -> dict:
    """Measure one pinned scale, coalesced and solo, with parity check."""
    jobs = serve_jobs(scale)
    coalesced, coalesced_payloads = _measure(
        scale, jobs, DEFAULT_MAX_WAVE_WARPS, repeats)
    solo, solo_payloads = _measure(scale, jobs, 1, repeats)
    fingerprints = {key: _payload_fingerprint(payload)
                    for key, payload in sorted(coalesced_payloads.items())}
    for key, fp in fingerprints.items():
        solo_fp = _payload_fingerprint(solo_payloads[key])
        if fp != solo_fp:
            raise ReproError(
                f"multi-tenant parity violated at scale {scale.name!r}: "
                f"job {key} returned {fp} coalesced but {solo_fp} solo")
    speedup = (round(coalesced["requests_per_s"] / solo["requests_per_s"], 2)
               if solo["requests_per_s"] else 0.0)
    return {
        "pins": {**asdict(scale), "k_schedule": list(scale.k_schedule)},
        "counters": {
            "jobs": scale.total_jobs,
            "result_fingerprints": fingerprints,
        },
        "coalesced": coalesced,
        "solo": solo,
        "speedup": speedup,
        "min_speedup": scale.min_speedup,
        "peak_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
    }


def collect_serve_bench(smoke_only: bool = False, repeats: int = 2) -> dict:
    """Run the pinned scales and assemble the ``BENCH_serve.json`` doc."""
    names = ("smoke",) if smoke_only else ("smoke", "full")
    return {
        "schema": BENCH_SERVE_SCHEMA,
        "scales": {n: run_serve_scale(_SCALES[n], repeats) for n in names},
    }


def floor_problems(current: dict) -> list[str]:
    """In-run gate: each measured scale must clear its speedup floor."""
    problems: list[str] = []
    for name, scale in current.get("scales", {}).items():
        floor = scale.get("min_speedup", 0.0)
        speedup = scale.get("speedup", 0.0)
        if speedup < floor:
            problems.append(
                f"{name}: coalescing speedup {speedup:.2f}x is below the "
                f"{floor:.1f}x floor "
                f"(coalesced {scale['coalesced']['requests_per_s']:.2f} "
                f"req/s vs solo {scale['solo']['requests_per_s']:.2f})")
    return problems


def compare_serve_bench(baseline: dict, current: dict,
                        max_regression: float = MAX_REGRESSION) -> list[str]:
    """Gate violations of ``current`` against ``BENCH_serve.json``."""
    return compare_documents(
        baseline, current, max_regression, "serve result identity",
        "coalesced throughput", "req/s",
        lambda scale: scale.get("coalesced", {}).get("requests_per_s"))


def _describe(scale: dict) -> str:
    return (f"coalesced {scale['coalesced']['requests_per_s']:.2f} req/s "
            f"(p99 {scale['coalesced']['p99_latency_ms']:.0f} ms) vs solo "
            f"{scale['solo']['requests_per_s']:.2f} req/s -> "
            f"{scale['speedup']:.2f}x (floor {scale['min_speedup']:.1f}x)")


SUITE = BenchSuite(DEFAULT_BENCH_SERVE_PATH, collect_serve_bench,
                   compare_serve_bench, _describe, floor_problems)
