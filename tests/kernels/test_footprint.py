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
