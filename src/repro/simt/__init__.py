"""SIMT GPU simulator: devices, caches, counters.

This subpackage stands in for the three physical GPUs of the paper
(NVIDIA A100, AMD MI250X, Intel Max 1550). It executes real warp-level
algorithms (the kernels in :mod:`repro.kernels`) over vectorized lane
arrays, and measures — rather than assumes — the quantities the paper
profiles: warp-level integer operations, HBM bytes (through a cache
model), predication/active-lane statistics, and serial dependency depth.
"""

from repro.simt.device import (
    A100,
    MAX1550,
    MI250X,
    PLATFORMS,
    CacheSpec,
    DeviceSpec,
    device_by_name,
)
from repro.simt.counters import KernelProfile
from repro.simt.memory import (
    AccessCategory,
    AnalyticCacheModel,
    CacheHierarchy,
    CacheSim,
    MemoryTraffic,
)

__all__ = [
    "A100",
    "MI250X",
    "MAX1550",
    "PLATFORMS",
    "CacheSpec",
    "DeviceSpec",
    "device_by_name",
    "KernelProfile",
    "AccessCategory",
    "AnalyticCacheModel",
    "CacheHierarchy",
    "CacheSim",
    "MemoryTraffic",
]
