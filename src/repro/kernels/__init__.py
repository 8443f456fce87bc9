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
(:class:`repro.kernels.engine.backend.ScalarReferenceBackend`) they make
up :data:`BACKENDS`, so callers select execution paths by name
(:func:`create_backend`), by device (:func:`backend_for_device`), or —
what every front door does — by either (:func:`resolve_backend`).
"""

from repro.errors import KernelError
from repro.kernels.cuda_kernel import CudaLocalAssemblyKernel
from repro.kernels.engine import (
    ExecutionBackend,
    KernelRunResult,
    LocalAssemblyKernel,
    ProtocolCosts,
    ScalarReferenceBackend,
)
from repro.kernels.hip_kernel import HipLocalAssemblyKernel
from repro.kernels.sycl_kernel import SyclLocalAssemblyKernel
from repro.kernels.vectortable import WarpHashTables
from repro.simt.device import A100, MAX1550, MI250X, DeviceSpec

__all__ = [
    "BACKENDS",
    "WAVE_BACKENDS",
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
    "resolve_backend",
]

#: Every execution backend by name (case-insensitive): its class and the
#: device it runs on when the caller names none — each port's paper
#: device (Table I); the scalar reference runs device-less.
BACKENDS = {
    "cuda": (CudaLocalAssemblyKernel, A100),
    "hip": (HipLocalAssemblyKernel, MI250X),
    "scalar": (ScalarReferenceBackend, None),
    "sycl": (SyclLocalAssemblyKernel, MAX1550),
}

#: Device programming model -> backend name (the paper's Table I).
_MODEL_TO_BACKEND = {device.programming_model: name
                     for name, (_, device) in BACKENDS.items()
                     if device is not None}

#: The names a coalesced wave can drive: ``"auto"`` and Table I's ports
#: (the scalar reference has no launches to fuse).
WAVE_BACKENDS = ("auto", *_MODEL_TO_BACKEND.values())


def available_backends() -> tuple[str, ...]:
    """Backend names, sorted."""
    return tuple(sorted(BACKENDS))


def create_backend(name: str, device: DeviceSpec | None = None,
                   **kwargs) -> ExecutionBackend:
    """Instantiate a backend by name, on ``device`` or its default one."""
    try:
        cls, default = BACKENDS[name.lower()]
    except KeyError:
        raise KernelError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None
    return cls(device if device is not None else default, **kwargs)


def backend_for_device(device: DeviceSpec, **kwargs) -> ExecutionBackend:
    """The backend matching a device's programming model."""
    name = _MODEL_TO_BACKEND.get(device.programming_model)
    if name is None:
        raise KernelError(
            f"no backend for programming model {device.programming_model!r}"
        )
    return create_backend(name, device=device, **kwargs)


def resolve_backend(name: str, device: DeviceSpec,
                    **kwargs) -> ExecutionBackend:
    """The backend a front door's ``--backend`` / ``"backend"`` names.

    ``"auto"`` follows the device's programming model
    (:func:`backend_for_device`); ``"scalar"`` has no device model and
    runs device-less; any other name runs on ``device``.
    """
    if name == "auto":
        return backend_for_device(device, **kwargs)
    return create_backend(name, device=None if name == "scalar" else device,
                          **kwargs)
