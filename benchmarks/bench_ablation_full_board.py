"""Ablation: single die/tile (the paper's setup) vs the full board.

The paper notes the MI250X has two GCDs and the Max 1550 two tiles, and
uses one of each. This bench models the optimistic full-board scaling
(2x compute, L2, bandwidth; no cross-die penalty) and reports how much of
the A100 gap it closes.
"""

from conftest import BENCH_SCALE, banner

from repro.analysis.report import render_table
from repro.core.extension import PRODUCTION_POLICY
from repro.kernels import backend_for_device
from repro.perfmodel.timing import extrapolate_profile
from repro.simt.device import A100, MAX1550, MI250X, full_board


def _time(device, contigs, k):
    kern = backend_for_device(device, policy=PRODUCTION_POLICY)
    res = kern.run(contigs, k, parallel_scale=BENCH_SCALE)
    return extrapolate_profile(res.profile, device, BENCH_SCALE).seconds


def test_ablation_full_board(suite, benchmark):
    k = 55
    contigs = suite.dataset(k)
    rows = []
    times = {}
    for base_dev in (MI250X, MAX1550):
        single = _time(base_dev, contigs, k)
        full = _time(full_board(base_dev), contigs, k)
        times[base_dev.name] = (single, full)
        rows.append([base_dev.name, round(single * 1e3, 2),
                     round(full * 1e3, 2), round(single / full, 2)])
    benchmark.pedantic(lambda: _time(full_board(MI250X), contigs, k),
                       rounds=1, iterations=1)

    print(banner("Ablation — single die/tile vs full board (k=55)"))
    print(render_table(["device", "single (ms)", "full board (ms)",
                        "speed-up"], rows))
    a100 = _time(A100, contigs, k)
    print(f"A100 reference: {a100 * 1e3:.2f} ms")

    for name, (single, full) in times.items():
        assert 1.5 < single / full <= 2.05  # near-linear optimistic scaling
    # the full MI250X overtakes the single-die A100 it loses to
    assert times["MI250X"][0] > a100 > times["MI250X"][1]
