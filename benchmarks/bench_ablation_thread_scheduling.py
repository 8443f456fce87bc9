"""Ablation: independent thread scheduling (the paper's Section VI remark).

"Independent thread scheduling may help mitigate the issues" — with it,
every lane of a warp can run its own mer-walk instead of idling while one
lane walks. This bench quantifies the suggestion: the same kernels with
lane-parallel walks enabled, i.e. walk instructions stop occupying the
full warp width. The MI250X — whose 64-wide wavefronts pay the biggest
predication tax — gains the most, erasing its large-k blow-up.
"""

from conftest import BENCH_SCALE, banner

from repro.analysis.report import render_table
from repro.core.extension import PRODUCTION_POLICY
from repro.kernels import backend_for_device
from repro.perfmodel.timing import extrapolate_profile
from repro.simt.device import PLATFORMS, MI250X


def _time(device, contigs, k, lane_parallel):
    kern = backend_for_device(device, policy=PRODUCTION_POLICY,
                              lane_parallel_walks=lane_parallel)
    res = kern.run(contigs, k, parallel_scale=BENCH_SCALE)
    return extrapolate_profile(res.profile, device, BENCH_SCALE).seconds


def test_ablation_independent_thread_scheduling(suite, benchmark):
    k = 77  # walk-dominated: where predication hurts most
    contigs = suite.dataset(k)
    rows = []
    gains = {}
    for device in PLATFORMS:
        base = _time(device, contigs, k, lane_parallel=False)
        its = _time(device, contigs, k, lane_parallel=True)
        gains[device.name] = base / its
        rows.append([device.name, device.warp_size,
                     round(base * 1e3, 2), round(its * 1e3, 2),
                     round(base / its, 2)])
    benchmark.pedantic(
        lambda: _time(MI250X, contigs, k, True), rounds=1, iterations=1)

    print(banner("Ablation — independent thread scheduling (k=77)"))
    print(render_table(["device", "warp", "baseline (ms)",
                        "lane-parallel walks (ms)", "speed-up"], rows))

    # every device gains, and the widest warps gain the most
    assert all(g > 1.0 for g in gains.values())
    assert gains["MI250X"] > gains["A100"] > gains["MAX1550"]
