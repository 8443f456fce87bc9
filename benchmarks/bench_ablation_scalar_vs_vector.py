"""Ablation: scalar CPU implementation vs warp-synchronous vectorized SIMT.

DESIGN.md decision #1: the SIMT kernels execute all warps in NumPy
lockstep instead of looping over lanes in Python. This bench measures the
host-side speedup of that choice (same algorithm, same results) by
running the scalar ``LocalHashTable``-based backend and the vectorized
CUDA kernel over the same contigs.
"""

import time

from conftest import banner

from repro.analysis.report import render_table
from repro.core.extension import PRODUCTION_POLICY
from repro.kernels import CudaLocalAssemblyKernel, create_backend
from repro.simt.device import A100

N_CONTIGS = 40


def test_ablation_scalar_vs_vector(suite, benchmark):
    contigs = suite.dataset(21)[:N_CONTIGS]

    t0 = time.perf_counter()
    scalar_result = create_backend("scalar", policy=PRODUCTION_POLICY).run(
        contigs, 21)
    scalar_s = time.perf_counter() - t0

    kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
    t0 = time.perf_counter()
    vector_result = kern.run(contigs, 21)
    vector_s = time.perf_counter() - t0
    benchmark.pedantic(lambda: kern.run(contigs, 21), rounds=1, iterations=1)

    print(banner(f"Ablation — scalar vs vectorized ({N_CONTIGS} contigs, k=21)"))
    print(render_table(
        ["implementation", "host seconds", "per contig (ms)"],
        [["scalar LocalHashTable backend", round(scalar_s, 3),
          round(1e3 * scalar_s / N_CONTIGS, 2)],
         ["vectorized SIMT kernel", round(vector_s, 3),
          round(1e3 * vector_s / N_CONTIGS, 2)]],
    ))
    print(f"vectorization speedup: {scalar_s / vector_s:.1f}x")

    # identical extensions from both implementations
    assert vector_result.right == scalar_result.right
    assert vector_result.left == scalar_result.left
