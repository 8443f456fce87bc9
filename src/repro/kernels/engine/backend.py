"""Execution backends: the protocol, the registry, and the scalar port.

A *backend* is anything that can execute the local-assembly workflow —
the three SIMT vendor ports (CUDA / HIP / SYCL, thin
:class:`ProtocolCosts` + warp-size configurations over the shared
engine) and the scalar CPU reference over :mod:`repro.core`'s hash
table and mer-walk — the one CPU local assembler. All of them implement
:class:`ExecutionBackend` and register themselves in one registry, so
the experiment suite, the CLI, the de novo assembler and the benchmarks
select execution paths by name rather than by import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from repro.core.construct import build_table, insertions_for
from repro.core.extension import DEFAULT_POLICY, WalkPolicy, WalkState
from repro.core.merwalk import DEFAULT_MAX_WALK_LEN, mer_walk
from repro.errors import HashTableFullError, KernelError
from repro.genomics.contig import Contig, End
from repro.genomics.dna import reverse_complement
from repro.genomics.reads import Read, ReadSet
from repro.kernels.engine.schedule import (
    KernelRunResult,
    SideArrays,
    iterate_k_schedule,
)
from repro.simt.counters import KernelProfile
from repro.simt.device import DeviceSpec


@dataclass(frozen=True)
class ProtocolCosts:
    """Where the three SIMT ports differ (paper Appendix A).

    Attributes:
        name: "CUDA" / "HIP" / "SYCL".
        iteration_intops: extra integer ops per pending lane per probe
            iteration (flag handling, mask computation, ...).
        iteration_syncs: warp/sub-group synchronizations per active warp
            per probe iteration (``__syncwarp(mask)``, ``__all``,
            ``sg.barrier()``).
        merges_in_iteration: True for the CUDA port, whose
            ``__match_any_sync`` lets lanes that lost an ``atomicCAS`` to
            a same-key winner merge their vote in the *same* iteration;
            the HIP/SYCL ports make them retry on the next iteration.
    """

    name: str
    iteration_intops: int
    iteration_syncs: int
    merges_in_iteration: bool


@runtime_checkable
class ExecutionBackend(Protocol):
    """What every execution path must provide."""

    def run(self, contigs: list[Contig], k: int, **kwargs) -> KernelRunResult:
        ...

    def run_schedule(self, contigs: list[Contig],
                     k_schedule: tuple[int, ...] = (21, 33, 55, 77),
                     **kwargs) -> KernelRunResult:
        ...


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., ExecutionBackend]] = {}

#: Device programming model -> registry name (the paper's Table I).
_MODEL_TO_BACKEND = {"CUDA": "cuda", "HIP": "hip", "SYCL": "sycl"}

#: The names a coalesced wave can drive: ``"auto"`` and Table I's ports.
#: Registered is not enough — the scalar reference has no launches to
#: fuse and the sanitizer's demo kernel is wrong on purpose.
WAVE_BACKENDS = ("auto", *_MODEL_TO_BACKEND.values())


def register_backend(name: str, factory: Callable[..., ExecutionBackend],
                     *, overwrite: bool = False) -> None:
    """Register a backend factory under ``name`` (case-insensitive).

    The factory is called as ``factory(device=..., **kwargs)``; ``device``
    may be ``None`` for device-less backends (the scalar reference).
    """
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise KernelError(f"backend {name!r} already registered")
    _REGISTRY[key] = factory


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str, device: DeviceSpec | None = None,
                   **kwargs) -> ExecutionBackend:
    """Instantiate a registered backend by name."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise KernelError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None
    return factory(device=device, **kwargs)


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
    runs device-less; any other registered name runs on ``device``.
    """
    if name == "auto":
        return backend_for_device(device, **kwargs)
    return create_backend(name, device=None if name == "scalar" else device,
                          **kwargs)


# ----------------------------------------------------------------------
# the scalar reference backend
# ----------------------------------------------------------------------


def _reverse_complement_reads(reads: ReadSet) -> ReadSet:
    """Reverse-complement every read (qualities reverse along with bases)."""
    out = ReadSet()
    for r in reads:
        out.append(
            Read(name=r.name + "/rc", codes=reverse_complement(r.codes),
                 quals=r.quals[::-1].copy())
        )
    return out


class ScalarReferenceBackend:
    """The CPU local assembler, as an :class:`ExecutionBackend`.

    Runs Algorithm 1 + Algorithm 2 per contig end through the
    :mod:`repro.core` hash table and mer-walk, and reports results in
    the kernel's :class:`KernelRunResult` shape; its ``run_schedule``
    folds the k schedule through the same :class:`KSchedule` as the
    SIMT ports. The left end walks as a right walk over the
    reverse-complemented reads and seed (the GPU's separate left
    extension kernel, Figure 3). Functional output (extension bases and
    walk states) is identical to the SIMT ports; only the profile
    counters differ (no warps, no waves, no predication, no memory
    model).
    """

    name = "scalar"

    def __init__(self, device: DeviceSpec | None = None,
                 policy: WalkPolicy = DEFAULT_POLICY,
                 max_walk_len: int = DEFAULT_MAX_WALK_LEN,
                 seed: int = 0, overflow_policy="raise",
                 table_capacity: int | None = None,
                 grow_factor: float | None = None,
                 max_grow_attempts: int | None = None, **_ignored) -> None:
        self.device = device
        self.policy = policy
        self.max_walk_len = max_walk_len
        self.seed = seed
        self.overflow_policy = overflow_policy
        #: Explicit per-contig table capacity; ``None`` sizes from the
        #: reads. Undersizing it is how tests force the overflow paths.
        self.table_capacity = table_capacity
        # Imported here: repro.resilience.checkpoint imports this module.
        from repro.resilience.policy import grow_budget
        self.grow_factor, self.max_grow_attempts = grow_budget(
            grow_factor, max_grow_attempts)

    def _build_table(self, reads: ReadSet, k: int, contig_id: int,
                     profile: KernelProfile, retried: set):
        """``build_table`` under the configured overflow policy.

        Returns ``None`` when the contig is dropped (DROP_CONTIG, or
        grow-retry exhausting its attempts).
        """
        from repro.resilience.policy import OverflowPolicy, grown_capacity
        policy = OverflowPolicy.parse(self.overflow_policy)
        capacity = self.table_capacity
        attempts = self.max_grow_attempts
        for attempt in range(attempts + 1):
            try:
                return build_table(reads, k, capacity=capacity, seed=self.seed)
            except HashTableFullError as err:
                if policy is OverflowPolicy.RAISE:
                    raise HashTableFullError(
                        "hash table overflow during construction",
                        contig_id=contig_id, k=k, capacity=err.capacity,
                        probes=err.probes) from None
                if policy is OverflowPolicy.DROP_CONTIG or attempt == attempts:
                    profile.contigs_dropped += 1
                    return None
                capacity = int(grown_capacity(err.capacity, self.grow_factor))
                profile.overflow_retries += 1
                retried.add(contig_id)
        return None

    def _walk_end(self, contig: Contig, k: int, end: End,
                  profile: KernelProfile, contig_id: int,
                  degraded: set, retried: set) -> tuple[str, WalkState]:
        reads = contig.reads_for_end(end)
        if end is End.LEFT:
            reads = _reverse_complement_reads(reads)
        if k > len(contig) or reads.kmer_count(k + 1) == 0:
            return "", WalkState.MISSING
        table = self._build_table(reads, k, contig_id, profile, retried)
        if table is None:
            degraded.add(contig_id)
            return "", WalkState.MISSING
        profile.inserts += insertions_for(reads, k)
        seed_kmer = (contig.end_kmer(k, End.RIGHT) if end is End.RIGHT
                     else reverse_complement(contig.end_kmer(k, End.LEFT)))
        walk = mer_walk(table, seed_kmer, self.max_walk_len, self.policy)
        profile.lookups += walk.steps
        profile.lookup_probe_iterations += walk.steps
        profile.walk_steps += len(walk.bases)
        profile.extension_bases += len(walk.bases)
        bases = walk.bases
        if end is End.LEFT and bases:
            rc = reverse_complement(bases)
            assert isinstance(rc, str)
            bases = rc
        return bases, walk.state

    def run(self, contigs: list[Contig], k: int, pending=None,
            **_kwargs) -> KernelRunResult:
        """Execute the full workflow at one k on the scalar path — for
        the contig ends ``pending`` marks when a k-schedule passes its
        pending set, for both ends of every contig otherwise."""
        profile = KernelProfile(warp_size=1)
        profile.walk_issue_width = 1
        profile.contigs = len(contigs)
        right = SideArrays.empty(len(contigs))
        left = SideArrays.empty(len(contigs))
        degraded: set = set()
        retried: set = set()
        for ci, contig in enumerate(contigs):
            for end, side in ((End.RIGHT, right), (End.LEFT, left)):
                if pending is None or pending[end][ci]:
                    side.put(ci, *self._walk_end(contig, k, end, profile,
                                                 ci, degraded, retried))
        return KernelRunResult.of_sides(self.device, k, profile, right, left,
                                        degraded=sorted(degraded),
                                        retried=sorted(retried))

    def run_schedule(self, contigs: list[Contig],
                     k_schedule: tuple[int, ...] = (21, 33, 55, 77),
                     **_kwargs) -> KernelRunResult:
        """Iterate the k schedule with the kernels' settle semantics."""
        return iterate_k_schedule(
            lambda k, pending: self.run(contigs, k, pending=pending),
            len(contigs), k_schedule).result(self.device)


register_backend("scalar",
                 lambda device=None, **kw: ScalarReferenceBackend(device=device,
                                                                  **kw))
