"""Execution backends: the protocol and the scalar port.

A *backend* is anything that can execute the local-assembly workflow —
the three SIMT vendor ports (CUDA / HIP / SYCL, thin
:class:`ProtocolCosts` + warp-size configurations over the shared
engine) and the scalar CPU reference over :mod:`repro.core.reference`'s
dict table and string walk — the one CPU local assembler. All of them
implement :class:`ExecutionBackend`; :data:`repro.kernels.BACKENDS`
names the four, so the experiment suite, the CLI, the de novo assembler
and the benchmarks select execution paths by name rather than by import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.construct import insertions_for
from repro.core.extension import (
    DEFAULT_MAX_WALK_LEN,
    DEFAULT_POLICY,
    WalkPolicy,
    WalkState,
)
from repro.core.reference import reference_table, reference_walk
from repro.errors import HashTableFullError
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

    Runs Algorithm 1 + Algorithm 2 per contig end as
    :func:`~repro.core.reference.reference_table` and
    :func:`~repro.core.reference.reference_walk`, and reports results in
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
                 overflow_policy="raise",
                 table_capacity: int | None = None,
                 grow_factor: float | None = None,
                 max_grow_attempts: int | None = None, **_ignored) -> None:
        # Imported here: repro.resilience.checkpoint imports this module.
        from repro.resilience.policy import OverflowPolicy, grow_budget
        self.device = device
        self.policy = policy
        self.max_walk_len = max_walk_len
        self.overflow_policy = OverflowPolicy.parse(overflow_policy)
        #: Explicit per-contig table capacity; ``None`` sizes from the
        #: reads. Undersizing it is how tests force the overflow paths.
        self.table_capacity = table_capacity
        self.grow_factor, self.max_grow_attempts = grow_budget(
            grow_factor, max_grow_attempts)

    def _sized_table(self, reads: ReadSet, k: int, contig_id: int,
                     profile: KernelProfile, retried: set):
        """:func:`reference_table` under the configured overflow policy.

        A table overflows when it holds more distinct k-mers than its
        capacity; sized from the reads (no ``table_capacity``) it never
        does. What a table holds does not depend on its capacity, so
        grow-retry re-checks the one dict against each grown capacity.
        Returns ``None`` when the contig is dropped (DROP_CONTIG, or
        grow-retry exhausting its attempts).
        """
        from repro.resilience.policy import OverflowPolicy, grown_capacity
        table = reference_table(reads, k)
        capacity = self.table_capacity
        attempt = 0
        while capacity is not None and len(table) > capacity:
            if self.overflow_policy is OverflowPolicy.RAISE:
                # a full open-addressed table wraps after one probe per slot
                raise HashTableFullError(
                    "hash table overflow during construction",
                    contig_id=contig_id, k=k, capacity=capacity,
                    probes=capacity)
            if (self.overflow_policy is OverflowPolicy.DROP_CONTIG
                    or attempt == self.max_grow_attempts):
                profile.contigs_dropped += 1
                return None
            capacity = int(grown_capacity(capacity, self.grow_factor))
            profile.overflow_retries += 1
            retried.add(contig_id)
            attempt += 1
        return table

    def _walk_end(self, contig: Contig, k: int, end: End,
                  profile: KernelProfile, contig_id: int,
                  degraded: set, retried: set) -> tuple[str, WalkState]:
        reads = contig.reads_for_end(end)
        if end is End.LEFT:
            reads = _reverse_complement_reads(reads)
        if k > len(contig) or reads.kmer_count(k + 1) == 0:
            return "", WalkState.MISSING
        table = self._sized_table(reads, k, contig_id, profile, retried)
        if table is None:
            degraded.add(contig_id)
            return "", WalkState.MISSING
        profile.inserts += insertions_for(reads, k)
        seed = (contig.sequence[-k:] if end is End.RIGHT
                else reverse_complement(contig.sequence[:k]))
        bases, state, steps = reference_walk(table, seed, self.max_walk_len,
                                             self.policy)
        profile.lookups += steps
        profile.lookup_probe_iterations += steps
        profile.walk_steps += len(bases)
        profile.extension_bases += len(bases)
        if end is End.LEFT:
            bases = reverse_complement(bases)
        return bases, state

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

