"""Ablation: validate the analytic cache model against real kernel traces.

Runs one launch with table-slot address recording enabled, replays the
exact addresses through the batched set-associative cache simulator
sized as each device's L2, and compares the resulting hit rate with the
analytic model's prediction for the same launch. The analytic model is
evaluated at the *measured* batch size (parallel_scale=1), so the two see
identical pressure.

The batched :meth:`CacheSim.replay` engine made trace-scale validation
cheap: the seed ran this bench at scale 0.004 because the scalar
simulator was O(accesses) in Python; the batched path replays the same
trace an order of magnitude faster, so the bench now runs 5x more
contigs and prints both paths' times side by side.
"""

import time

import numpy as np
from conftest import banner

from repro.analysis.report import render_table
from repro.core.extension import PRODUCTION_POLICY
from repro.datasets.generate import generate_paper_dataset
from repro.kernels import backend_for_device
from repro.kernels.vectortable import SLOT_BYTES
from repro.simt.device import A100, MI250X
from repro.simt.memory import AccessCategory, AnalyticCacheModel, CacheSim

SCALE = 0.02  # 5x the seed's 0.004: batched replay is no longer the limit


def _replay_hit_rate(device, trace, batched=True):
    """Warm-up on the first quarter, measure the rest (excluding
    compulsory misses, as the analytic model does)."""
    sim = CacheSim(device.l2, ways=16)
    run = sim.replay if batched else sim.access_trace
    n_warm = len(trace) // 4
    run(trace[:n_warm])
    sim.reset_stats()
    run(trace[n_warm:])
    return sim.hit_rate


def _measure(device, contigs, k):
    kern = backend_for_device(device, policy=PRODUCTION_POLICY)
    kern.record_trace = True
    res = kern.run(contigs, k)  # parallel_scale=1: model the batch as-is
    trace = np.concatenate(res.trace)
    # L2 replay: atomics bypass L1, so the raw trace is what the L2 sees
    t0 = time.perf_counter()
    traced = _replay_hit_rate(device, trace)
    t_batched = time.perf_counter() - t0
    t0 = time.perf_counter()
    scalar = _replay_hit_rate(device, trace, batched=False)
    t_scalar = time.perf_counter() - t0
    assert scalar == traced  # bit-identical engines
    # analytic prediction for the same (unscaled) batch
    n_warps = len(contigs)
    table_bytes = trace.max() / max(1, n_warps)  # mean footprint per warp
    model = AnalyticCacheModel(device, warps_in_flight=n_warps)
    cat = AccessCategory("table_probe", len(trace), 16.0,
                        float(table_bytes), "random", atomic=True)
    _, l2_pred = model.hit_rates(cat)
    return traced, l2_pred, len(trace), t_scalar, t_batched


def test_ablation_trace_validation(benchmark):
    contigs = generate_paper_dataset(21, scale=SCALE)
    rows = []
    errors = []
    for device in (A100, MI250X):
        traced, predicted, n, t_scalar, t_batched = _measure(
            device, contigs, 21)
        rows.append([device.name, n, round(traced, 3), round(predicted, 3),
                     round(abs(traced - predicted), 3),
                     round(t_scalar, 3), round(t_batched, 3)])
        errors.append(abs(traced - predicted))
    benchmark.pedantic(
        lambda: _replay_hit_rate(
            A100, np.concatenate([np.arange(0, 10_000) * SLOT_BYTES] * 4)),
        rounds=1, iterations=1)

    print(banner("Ablation — trace-driven vs analytic L2 hit rate (k=21)"))
    print(render_table(["device", "accesses", "traced L2 hit",
                        "analytic L2 hit", "abs error",
                        "scalar (s)", "batched (s)"], rows))
    # the capacity model tracks the exact replay within a coarse band; at
    # this scale tables fit both L2s, so both must predict high hit rates
    assert max(errors) < 0.30
    assert all(r[2] > 0.5 for r in rows)
