"""Host footprint of the hash tables: tags per slot, votes per key.

The tables are sized once from the read-volume upper bound (Figure 3),
so most slots stay empty; the host may only pay *per slot* for what a
probe reads (fingerprint, occupied flag, the slot's vote-row index).
These tests are the guard against per-slot vote storage coming back.
"""

import tracemalloc

import numpy as np

from repro.core.extension import PRODUCTION_POLICY
from repro.genomics.contig import End
from repro.genomics.simulate import ErrorProfile, ScenarioSpec, simulate_batch
from repro.kernels import CudaLocalAssemblyKernel
from repro.kernels.engine import ConstructPhase, EventBus
from repro.kernels.vectortable import WarpHashTables
from repro.simt.device import A100

K = 21
#: What one slot cost when votes were per slot: hi_q + low_q + count.
PER_SLOT_VOTE_BYTES = 4 * 4 + 4 * 4 + 4
#: What one slot may cost: fingerprint + occupied flag + vote-row index.
TAG_BYTES = 8 + 1 + 4


def _contigs(n=12, seed=5):
    spec = ScenarioSpec(contig_length=150, flank_length=60, read_length=80,
                        depth=6, seed_window=40)
    errors = ErrorProfile(error_rate=0.005, lo_quality_fraction=0.1)
    return [sc.contig for sc in simulate_batch(
        n, spec, np.random.default_rng(seed), errors)]


def _tag_bytes(tables):
    return tables.fp.nbytes + tables.occupied.nbytes + tables.row.nbytes


def _constructed(contigs, load_factor):
    """The right-end launch's tables after construction."""
    kern = CudaLocalAssemblyKernel(A100, load_factor=load_factor)
    plan, = [p for p in kern.launch_policy.plan(contigs, K,
                                                kern.launch_config())
             if p.end is End.RIGHT]
    batch = kern.preparer.prepare(contigs, plan.bin, plan.end, K)
    tables = WarpHashTables(batch.capacities, K)
    ConstructPhase(kern.protocol, kern.warp_size).run(batch, tables,
                                                      EventBus())
    return tables


def test_votes_follow_keys_and_tags_follow_capacity():
    """The same batch in tables of ~1x and ~4x the capacity: the vote
    store holds the same bytes, the tags grow with the slots."""
    contigs = _contigs()
    snug, roomy = (_constructed(contigs, lf) for lf in (0.8, 0.2))
    assert roomy.total_slots > 3.5 * snug.total_slots
    keys = int(snug.occupied.sum())
    assert keys == roomy.occupied.sum()
    assert snug.votes.nbytes == roomy.votes.nbytes == (keys + 1) * 8 * 4
    for tables in (snug, roomy):
        assert _tag_bytes(tables) == tables.total_slots * TAG_BYTES
        assert tables.count.sum() == tables.votes.sum()


def test_run_schedule_peak_stays_below_per_slot_votes():
    """Peak traced memory of a whole ``run_schedule`` over sparsely
    filled tables (load factor 0.02, so the slots dominate everything
    else a launch holds) is below what the per-slot vote arrays alone
    used to take — and below two launches' tags: a finished launch's
    tables must not outlive the next launch's prepare."""
    kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY,
                                   load_factor=0.02)
    launched = []

    class Recorded(kern.tables_cls):
        def __init__(self, capacities, k):
            super().__init__(capacities, k)
            launched.append(self.total_slots)

    kern.tables_cls = Recorded
    contigs = _contigs()
    tracemalloc.start()
    try:
        kern.run_schedule(contigs, (K, 33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slots = max(launched)
    assert slots * TAG_BYTES < peak, "the tables were not traced"
    assert peak < slots * PER_SLOT_VOTE_BYTES, \
        f"{peak / slots:.1f} B per slot: per-slot vote storage is back"
    assert peak < 2 * slots * TAG_BYTES, \
        f"{peak / slots:.1f} B per slot: two launches' tables were alive"


# ----------------------------------------------------------------------
# walk groups: what sharing a walk may hold
# ----------------------------------------------------------------------


def _table2_run():
    """The k = 33 dataset of the paper grid at a tenth of its size: the
    Table II shape (many contigs, 3-5 reads each) — 439 contigs in four
    bins, so 8 launches of 878 warps, all of which share one walk."""
    from repro.analysis.experiments import generate_paper_dataset
    return generate_paper_dataset(33, scale=0.1, seed=7), 33


def _traced_run(contigs, k, budget):
    """``(traced peak, walks, launches' table sets)`` of one ``run``."""
    kern = CudaLocalAssemblyKernel(A100)
    kern.walk_group_slots = budget
    launched, walks = [], []

    class Recorded(kern.tables_cls):
        def __init__(self, capacities, k):
            super().__init__(capacities, k)
            launched.append(self.total_slots)

    class Counted(kern.walk_cls):
        def run(self, batch, tables, bus):
            walks.append(batch.n_warps)
            return super().run(batch, tables, bus)

    kern.tables_cls, kern.walk_cls = Recorded, Counted
    tracemalloc.start()
    try:
        kern.run(contigs, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, walks, launched


def test_grouped_run_holds_the_budget_and_one_launch():
    """A run whose launches share a walk may hold, beyond what its
    largest launch holds alone, the budget's tables: 13 B for each of
    ``walk_group_slots`` slots and 32 B for each key in them — never a
    second copy of the group, and no walk state sized by the worst walk
    (878 walkers x 1,024 visited-set cells of 9 B were 8 MB)."""
    contigs, k = _table2_run()
    budget = CudaLocalAssemblyKernel.walk_group_slots
    alone, walks_alone, launched = _traced_run(contigs, k, 0)
    grouped, walks, launched_grouped = _traced_run(contigs, k, budget)
    assert launched_grouped == launched and len(launched) >= 8
    assert sum(walks_alone) >= 800 and len(walks_alone) == len(launched)
    assert walks == [sum(walks_alone)], "the launches did not share a walk"
    assert sum(launched) <= budget
    kern = CudaLocalAssemblyKernel(A100)
    keys = sum(
        np.unique(np.stack([b.ins_warp.astype(np.uint64), b.ins_fp]),
                  axis=1).shape[1]
        for b in (kern.preparer.prepare(contigs, plan.bin, plan.end, k)
                  for plan in kern.launch_policy.plan(
                      contigs, k, kern.launch_config())))
    allowed = TAG_BYTES * budget + 32 * keys + alone
    assert alone < grouped < allowed, \
        f"{(grouped - alone) / 1e6:.1f} MB over one launch's peak, " \
        f"{(allowed - alone) / 1e6:.1f} MB allowed"


def test_walk_state_is_sized_by_what_walks():
    """One walk over all 878 warps of the run, with no log: its peak —
    committed bases, current k-mers, the visited set — stays below 2 KB
    per warp. A visited set reserved for the longest possible walk took
    9,216 B per warp on its own."""
    from repro.kernels.engine import WalkPhase, concat_batches

    contigs, k = _table2_run()
    kern = CudaLocalAssemblyKernel(A100)
    fused, _ = concat_batches([
        kern.preparer.prepare(contigs, plan.bin, plan.end, k)
        for plan in kern.launch_policy.plan(contigs, k,
                                            kern.launch_config())])
    tables = WarpHashTables(fused.capacities, k)
    ConstructPhase(kern.protocol, kern.warp_size).run(fused, tables,
                                                      EventBus())
    walker = WalkPhase(kern.policy, kern.max_walk_len, kern.seed)
    tracemalloc.start()
    try:
        out = walker.run(fused, tables, EventBus())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fused.n_warps >= 800 and out.steps > 100
    assert peak < 2048 * fused.n_warps, \
        f"{peak / fused.n_warps:.0f} B of walk state per warp"
