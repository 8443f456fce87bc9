"""SIMT kernel ports of the local assembly kernel (paper Appendix A).

Three variants, differing exactly where the paper's ports differ:

* :class:`repro.kernels.cuda_kernel.CudaLocalAssemblyKernel` — fixed
  32-wide warps; thread collisions resolved *within* a probe iteration via
  ``__match_any_sync`` + ``__syncwarp(mask)``.
* :class:`repro.kernels.hip_kernel.HipLocalAssemblyKernel` — 64-wide
  wavefronts; a per-lane ``done`` flag with ``__all`` checks, so colliding
  lanes retry on the *next* iteration.
* :class:`repro.kernels.sycl_kernel.SyclLocalAssemblyKernel` —
  configurable sub-group size (default 16, the paper's best) with a
  sub-group barrier per iteration; colliding lanes also retry.

All three run on the staged execution engine in
:mod:`repro.kernels.engine` and produce identical *functional* results
(extensions); they differ in measured iteration counts, instruction
counts, synchronization counts, and predication statistics. Together
with the scalar CPU reference
(:class:`repro.kernels.engine.backend.ScalarReferenceBackend`) they
register in the engine's backend registry, so callers select execution
paths by name (:func:`repro.kernels.engine.create_backend`), by device
(:func:`repro.kernels.engine.backend_for_device`), or — what every front
door does — by either (:func:`repro.kernels.engine.resolve_backend`).
"""

from repro.kernels.cuda_kernel import CudaLocalAssemblyKernel
from repro.kernels.engine import (
    ExecutionBackend,
    KernelRunResult,
    LocalAssemblyKernel,
    ProtocolCosts,
    ScalarReferenceBackend,
    available_backends,
    backend_for_device,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.kernels.engine.backend import _REGISTRY
from repro.kernels.hip_kernel import HipLocalAssemblyKernel
from repro.kernels.sycl_kernel import SyclLocalAssemblyKernel
from repro.kernels.vectortable import WarpHashTables
from repro.simt.device import A100, MAX1550, MI250X

__all__ = [
    "ExecutionBackend",
    "KernelRunResult",
    "LocalAssemblyKernel",
    "ProtocolCosts",
    "ScalarReferenceBackend",
    "CudaLocalAssemblyKernel",
    "HipLocalAssemblyKernel",
    "SyclLocalAssemblyKernel",
    "WarpHashTables",
    "available_backends",
    "backend_for_device",
    "create_backend",
    "kernel_for_device",
    "register_backend",
    "resolve_backend",
]


def _register_ports() -> None:
    """Register the SIMT ports (idempotent; each with its paper device)."""
    defaults = {
        "cuda": (CudaLocalAssemblyKernel, A100),
        "hip": (HipLocalAssemblyKernel, MI250X),
        "sycl": (SyclLocalAssemblyKernel, MAX1550),
    }
    for name, (cls, default_device) in defaults.items():
        if name in _REGISTRY:
            continue

        def factory(device=None, *, _cls=cls, _default=default_device, **kw):
            return _cls(device if device is not None else _default, **kw)

        register_backend(name, factory)

    if "buggy-demo" not in _REGISTRY:
        # the sanitizer's self-test backend lives in repro.sanitize (which
        # depends on this package); register it lazily so it is selectable
        # by name regardless of import order, without a module-level cycle
        def buggy_factory(device=None, **kw):
            from repro.sanitize.demo import BuggyDemoKernel

            return BuggyDemoKernel(device if device is not None else A100,
                                   **kw)

        register_backend("buggy-demo", buggy_factory)


_register_ports()


def kernel_for_device(device, **kwargs):
    """The kernel variant matching a device's programming model."""
    return backend_for_device(device, **kwargs)
