"""Regenerates paper Figure 5: kernel execution time per device per k.

Paper shape (seconds, approximate): A100 ~.019/.021/.013/.021,
MI250X ~.025/.030/.055/.065 (blows up at large k — small L2 + 64-wide
wavefronts), Max 1550 ~.027/.024/.018/.015 (improves with k — huge L2 +
16-wide sub-groups). The reproduction targets those *relations*:
AMD worst and growing with k, Intel best at large k, A100 in between.

The benchmarked operation is one real (simulated) kernel launch.
"""

import pytest
from conftest import BENCH_SCALE, banner

from repro.analysis.report import render_dict_table
from repro.core.extension import PRODUCTION_POLICY
from repro.kernels import backend_for_device
from repro.simt.device import PLATFORMS


@pytest.mark.parametrize("device", PLATFORMS, ids=[d.name for d in PLATFORMS])
def test_fig5_kernel_run(suite, benchmark, device):
    contigs = suite.dataset(21)
    kern = backend_for_device(device, policy=PRODUCTION_POLICY)
    benchmark.pedantic(
        lambda: kern.run(contigs, 21, parallel_scale=BENCH_SCALE),
        rounds=1, iterations=1,
    )


def test_fig5_time_comparison(suite, benchmark):
    suite.run_all()
    rows = benchmark(suite.figure5)
    print(banner("Figure 5 — kernel time in seconds"))
    print(render_dict_table(rows))
    t = {r["k"]: r for r in rows}
    # the paper's headline relations
    assert t[77]["MI250X"] > t[77]["A100"] > 0
    assert t[55]["MI250X"] > t[55]["A100"]
    assert t[77]["MAX1550"] <= t[77]["A100"]
    assert t[55]["MAX1550"] <= t[55]["A100"]
    assert t[77]["MI250X"] > t[21]["MI250X"]  # AMD grows with k
