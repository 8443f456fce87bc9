#!/usr/bin/env python
"""Cross-vendor portability study (the paper's headline experiment).

Runs the CUDA, HIP, and SYCL ports of the local-assembly kernel on their
simulated devices (A100 / MI250X / Max 1550) over the four production
k-mer datasets, then prints the Figure 5 time comparison, the per-device
predication statistics, and the Pennycook portability metrics.

Run:  python examples/portability_study.py
"""

from repro import PLATFORMS, PRODUCTION_POLICY
from repro.analysis.report import render_table
from repro.datasets import generate_paper_dataset
from repro.kernels import backend_for_device
from repro.perfmodel.efficiency import algorithm_efficiency, architectural_efficiency
from repro.perfmodel.portability import pennycook
from repro.perfmodel.timing import extrapolate_profile

SCALE = 0.02
K_VALUES = (21, 33, 55, 77)

datasets = {k: generate_paper_dataset(k, scale=SCALE) for k in K_VALUES}
profiles = {}
for device in PLATFORMS:
    kernel = backend_for_device(device, policy=PRODUCTION_POLICY)
    for k in K_VALUES:
        print(f"  {device.programming_model:5s} port on {device.name} k={k} ...")
        result = kernel.run(datasets[k], k, parallel_scale=SCALE)
        profiles[device.name, k] = extrapolate_profile(
            result.profile, device, SCALE
        )

print("\nKernel time (ms) — Figure 5")
rows = [[k] + [round(profiles[d.name, k].seconds * 1e3, 1) for d in PLATFORMS]
        for k in K_VALUES]
print(render_table(["k"] + [d.name for d in PLATFORMS], rows))

print("\nPredication: mean active-lane fraction (warp width in parens)")
rows = [[k] + [f"{profiles[d.name, k].active_lane_fraction:.3f} ({d.warp_size})"
               for d in PLATFORMS] for k in K_VALUES]
print(render_table(["k"] + [d.name for d in PLATFORMS], rows))

print("\nPennycook performance portability")
for label, eff in (
    ("architectural", lambda p, d, k: architectural_efficiency(p, d)),
    ("algorithm", lambda p, d, k: algorithm_efficiency(p, k)),
):
    per_k = {
        k: [eff(profiles[d.name, k], d, k) for d in PLATFORMS] for k in K_VALUES
    }
    rows = [[k] + [f"{100 * e:.1f}%" for e in effs] + [f"{100 * pennycook(effs):.1f}%"]
            for k, effs in per_k.items()]
    print(render_table(["k"] + [d.name for d in PLATFORMS] + ["P"], rows,
                       title=f"{label} efficiency"))
    overall = pennycook([e for effs in per_k.values() for e in effs])
    print(f"average P_{label[:4]}: {100 * overall:.1f}%\n")
