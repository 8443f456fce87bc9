"""Kernel profiling counters (the simulator's nsight/rocprof/advisor).

:class:`KernelProfile` accumulates every quantity the paper's analysis
consumes. Counts are *measured* by the kernels while they execute —
probe chains, walk steps, and active-lane fractions come from the actual
algorithm running on the actual data — and the memory-model fields are
filled in by :mod:`repro.simt.memory`.

The convention matches the paper's artifact appendix: INTOPs are
**warp-level** (one warp instruction counts once, however many lanes are
active) and HBM bytes are what crosses the device memory bus.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError


@dataclass
class KernelProfile:
    """Aggregated counters for one kernel run (or a sum of runs).

    Attributes:
        intops: warp-level integer operations executed.
        hbm_bytes: bytes moved to/from device memory.
        l1_hit_bytes / l2_hit_bytes: bytes served by each cache level.
        warp_instructions: warp instructions issued (issue slots used).
        lane_instructions: sum over instructions of active lanes
            (``lane_instructions / (warp_instructions * warp_size)`` is the
            mean active-lane fraction, i.e. 1 - predication waste).
        warp_size: lane width used for the run (for the fraction above).
        inserts / insert_probe_iterations: construction work, measured.
        lookups / lookup_probe_iterations: walk work, measured.
        walk_steps: bases committed across all walks (a walk's terminal
            lookup counts in ``lookups`` only).
        sync_ops: warp/sub-group synchronization operations executed.
        atomics: atomic operations executed (CAS + vote updates).
        serial_depth: longest per-warp chain of dependent memory accesses
            (probing rounds + walk steps), summed over sequential batches
            — the latency-bound floor of the timing model.
        kernels_launched: number of kernel launches (one per bin per end).
        contigs / extensions_bases: functional outputs for sanity checks.
        seconds: predicted kernel time (filled by the timing model).
    """

    intops: int = 0
    hbm_bytes: float = 0.0
    l1_hit_bytes: float = 0.0
    l2_hit_bytes: float = 0.0
    warp_instructions: int = 0
    lane_instructions: int = 0
    warp_size: int = 32
    inserts: int = 0
    insert_probe_iterations: int = 0
    lookups: int = 0
    lookup_probe_iterations: int = 0
    walk_steps: int = 0
    sync_ops: int = 0
    atomics: int = 0
    serial_depth: int = 0
    #: Issue-slot width each walk instruction occupies. Equals the warp
    #: size for the paper's kernels (one lane walks, the warp stalls);
    #: 1 under the lane-parallel-walk mode that models the paper's
    #: independent-thread-scheduling suggestion.
    walk_issue_width: int = 32
    kernels_launched: int = 0
    contigs: int = 0
    extension_bases: int = 0
    #: Contig-end launches dropped on table overflow (the paper's
    #: ``*hashtable full*`` path, under OverflowPolicy.DROP_CONTIG).
    contigs_dropped: int = 0
    #: Grow-retry re-launches performed after table overflows.
    overflow_retries: int = 0
    #: Schema: result fingerprints, checkpoints and the pinned profiles
    #: of the tests carry all three, named for a flatten cache that is gone.
    #: ``misses`` counts the flattens of a k-schedule (one per launch
    #: plan per k; a bare ``run`` leaves it 0), the other two stay 0.
    prep_cache_hits: int = 0
    prep_cache_misses: int = 0
    prep_cache_evictions: int = 0
    seconds: float = 0.0
    # --- phase breakdown consumed by the timing model ---
    construct_intops: int = 0
    walk_intops: int = 0
    construct_chain_cycles: float = 0.0
    walk_chain_cycles: float = 0.0

    def merge(self, other: "KernelProfile") -> None:
        """Accumulate another profile (e.g. the next batch) into this one."""
        if other.warp_size != self.warp_size and self.warp_instructions:
            raise ModelError("cannot merge profiles from different warp sizes")
        self.warp_size = other.warp_size
        self.walk_issue_width = other.walk_issue_width
        for name in (
            "intops", "warp_instructions", "lane_instructions", "inserts",
            "insert_probe_iterations", "lookups", "lookup_probe_iterations",
            "walk_steps", "sync_ops", "atomics", "serial_depth",
            "kernels_launched", "contigs", "extension_bases",
            "contigs_dropped", "overflow_retries",
            "prep_cache_hits", "prep_cache_misses", "prep_cache_evictions",
            "construct_intops", "walk_intops",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.hbm_bytes += other.hbm_bytes
        self.l1_hit_bytes += other.l1_hit_bytes
        self.l2_hit_bytes += other.l2_hit_bytes
        self.construct_chain_cycles += other.construct_chain_cycles
        self.walk_chain_cycles += other.walk_chain_cycles
        self.seconds += other.seconds

    # ----- derived metrics (the paper's axes) -----

    @property
    def gintops(self) -> float:
        """Total INTOPs in units of 1e9 (the G in GINTOPs)."""
        return self.intops / 1e9

    @property
    def gbytes(self) -> float:
        """Total HBM traffic in GB (1e9 bytes, as the roofline uses)."""
        return self.hbm_bytes / 1e9

    @property
    def intop_intensity(self) -> float:
        """Empirical II = INTOPs / HBM byte (x-axis of Figure 6)."""
        if self.hbm_bytes <= 0:
            raise ModelError("intop_intensity undefined with zero HBM bytes")
        return self.intops / self.hbm_bytes

    @property
    def gintops_per_second(self) -> float:
        """Achieved performance (y-axis of Figure 6)."""
        if self.seconds <= 0:
            raise ModelError("gintops_per_second requires a computed time")
        return self.gintops / self.seconds

    @property
    def active_lane_fraction(self) -> float:
        """Mean fraction of lanes active per issued warp instruction."""
        if self.warp_instructions == 0:
            return 0.0
        return self.lane_instructions / (self.warp_instructions * self.warp_size)

    @property
    def mean_insert_probes(self) -> float:
        """Mean probing iterations per insertion (hash-collision pressure)."""
        return self.insert_probe_iterations / self.inserts if self.inserts else 0.0

    @property
    def cache_hit_fraction(self) -> float:
        """Fraction of accessed bytes served by L1+L2."""
        total = self.l1_hit_bytes + self.l2_hit_bytes + self.hbm_bytes
        return (self.l1_hit_bytes + self.l2_hit_bytes) / total if total else 0.0
