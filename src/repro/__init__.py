"""Reproduction of *Performance Modeling and Analysis of a de Bruijn Graph
Based Local Assembly Kernel on Multiple Vendor GPUs* (SC-W 2024).

Public API tour:

* ``repro.genomics`` — DNA, k-mers, reads, contigs, simulators, I/O.
* ``repro.hashing`` — MurmurHash2 (MurmurHashAligned2's digest on the
  kernel's aligned keys) + the Table V cost model.
* ``repro.core`` — Algorithms 1 and 2 with dicts and strings: what the
  ``scalar`` backend runs per contig end.
* ``repro.simt`` — the simulated GPUs (A100 / MI250X / MAX1550).
* ``repro.kernels`` — the CUDA / HIP / SYCL kernel ports on the simulator,
  and the ``scalar`` backend: the CPU local assembler.
* ``repro.perfmodel`` — roofline, theoretical II, Pennycook, timing.
* ``repro.datasets`` — Table II dataset generation.
* ``repro.analysis`` — one entry point per paper table/figure.

Quickstart::

    from repro import create_backend, simulate_batch, ScenarioSpec
    import numpy as np

    scenarios = simulate_batch(4, ScenarioSpec(), np.random.default_rng(0))
    contigs = [s.contig for s in scenarios]
    result = create_backend("scalar").run_schedule(contigs, (21, 33))
    for c, (left, _), (right, _) in zip(contigs, result.left, result.right):
        print(c.name, (left + c.sequence + right)[:60])
"""

from repro.core.extension import DEFAULT_POLICY, PRODUCTION_POLICY, WalkPolicy
from repro.genomics.contig import Contig, End
from repro.genomics.reads import Read, ReadSet
from repro.genomics.simulate import ScenarioSpec, simulate_batch
from repro.kernels import (
    CudaLocalAssemblyKernel,
    HipLocalAssemblyKernel,
    ScalarReferenceBackend,
    SyclLocalAssemblyKernel,
    available_backends,
    backend_for_device,
    create_backend,
    kernel_for_device,
)
from repro.simt.device import A100, MAX1550, MI250X, PLATFORMS

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_POLICY",
    "PRODUCTION_POLICY",
    "WalkPolicy",
    "Contig",
    "End",
    "Read",
    "ReadSet",
    "ScenarioSpec",
    "simulate_batch",
    "CudaLocalAssemblyKernel",
    "HipLocalAssemblyKernel",
    "ScalarReferenceBackend",
    "SyclLocalAssemblyKernel",
    "available_backends",
    "backend_for_device",
    "create_backend",
    "kernel_for_device",
    "A100",
    "MI250X",
    "MAX1550",
    "PLATFORMS",
    "__version__",
]
