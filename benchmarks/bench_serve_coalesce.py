"""Bench: cross-request coalescing vs one-launch-per-job serving.

Drives the real :class:`repro.serve.AssemblyService` over HTTP with a
swarm of concurrent clients burst-submitting small jobs (the harness of
``repro bench --suite serve``), and contrasts work-conserving coalescing
against the degenerate ``max_wave_warps = 1`` mode. Asserts the two deliver
byte-identical per-job results (the harness raises otherwise) and that
fusion clears each scale's pinned throughput floor — >= 3x at the full
scale's 8 concurrent clients.
"""

from conftest import banner

from repro.analysis.bench_serve import FULL, SMOKE, run_serve_scale
from repro.analysis.report import render_table


def test_serve_coalescing_throughput(benchmark):
    scales = (SMOKE, FULL)
    docs = {}

    def sweep():
        for scale in scales:
            # run_serve_scale raises on any coalesced/solo result mismatch
            docs[scale.name] = run_serve_scale(scale, repeats=1)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print(banner("Serve — cross-request coalescing"))
    rows = []
    for scale in scales:
        doc = docs[scale.name]
        coal, solo = doc["coalesced"], doc["solo"]
        rows.append([
            scale.name,
            f"{scale.clients}x{scale.jobs_per_client}",
            coal["waves"], solo["waves"],
            coal["requests_per_s"], solo["requests_per_s"],
            coal["p50_latency_ms"], coal["p99_latency_ms"],
            f"{doc['speedup']:.2f}x",
        ])
    print(render_table(
        ["scale", "clients x jobs", "waves", "solo waves",
         "req/s", "solo req/s", "p50 ms", "p99 ms", "speedup"], rows))

    for scale in scales:
        doc = docs[scale.name]
        # fusion actually happened: far fewer waves than jobs
        assert doc["coalesced"]["waves"] < scale.total_jobs
        assert doc["solo"]["waves"] == scale.total_jobs
        assert doc["speedup"] >= doc["min_speedup"], (
            f"{scale.name}: coalescing speedup {doc['speedup']}x below "
            f"the {doc['min_speedup']}x floor")
