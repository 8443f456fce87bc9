"""Host footprint of the hash tables: a row index per slot, the rest per key.

The tables are sized once from the read-volume upper bound (Figure 3),
so most slots stay empty; the host may only pay *per slot* for what a
probe reads. While construct claims that is the index of the insertion
that claimed the slot (its key is read through it); from the vote flush
on, the slot's vote-row index alone, the key's tag moving to its row. These tests are the guard
against per-slot vote storage, or per-slot tags, coming back.
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

from .test_vectortable import PerSlotVotes

K = 21
#: What one slot cost when votes were per slot: hi_q + low_q + count.
PER_SLOT_VOTE_BYTES = 4 * 4 + 4 * 4 + 4
#: What one slot may cost while construct claims: its claimer's index.
CLAIM_SLOT_BYTES = 4
#: What one slot may cost after the vote flush (its vote-row index), and
#: what its key's row adds beside the votes (the tag).
ROW_SLOT_BYTES = 4
TAG_KEY_BYTES = 8
#: All a key's row holds: votes, tag, read link and probe rounds.
ROW_KEY_BYTES = 8 * 4 + TAG_KEY_BYTES + 4 + 1


def _contigs(n=12, seed=5):
    spec = ScenarioSpec(contig_length=150, flank_length=60, read_length=80,
                        depth=6, seed_window=40)
    errors = ErrorProfile(error_rate=0.005, lo_quality_fraction=0.1)
    return [sc.contig for sc in simulate_batch(
        n, spec, np.random.default_rng(seed), errors)]


def _traced(call):
    """``(peak, still allocated)`` traced bytes of ``call()``."""
    tracemalloc.start()
    try:
        call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, current


def _slot_bytes(tables):
    """Bytes of every array the tables hold per slot, by name (a
    zero-stride view holds none)."""
    return {name: a.nbytes for name, a in vars(tables).items()
            if isinstance(a, np.ndarray) and a.shape[:1] == (
                tables.total_slots,) and a.strides[0]}


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


def test_votes_follow_keys_and_rows_follow_capacity():
    """The same batch in tables of ~1x and ~4x the capacity: the vote
    store and the tags hold the same bytes, the row indices grow with
    the slots."""
    contigs = _contigs()
    snug, roomy = (_constructed(contigs, lf) for lf in (0.8, 0.2))
    assert roomy.total_slots > 3.5 * snug.total_slots
    keys = int(snug.occupied.sum())
    assert keys == roomy.occupied.sum()
    assert snug.votes.nbytes == roomy.votes.nbytes == (keys + 1) * 8 * 4
    assert snug.tag.nbytes == roomy.tag.nbytes == (keys + 1) * TAG_KEY_BYTES
    for tables in (snug, roomy):
        assert _slot_bytes(tables) == {
            "row": tables.total_slots * ROW_SLOT_BYTES}
        assert tables.count.sum() == tables.votes.sum()


def test_construct_claims_in_four_bytes_a_slot():
    """While construct claims — recording each key's claimer, as ports
    that share a walk do — the one array of the tables as long as the
    slots is the claimer's index; the vote-row index does not exist
    yet."""
    from repro.kernels import HipLocalAssemblyKernel
    from repro.kernels.engine import run_ports
    from repro.simt.device import MI250X

    seen = []

    class Watched(ConstructPhase):
        def _insert_wave(self, batch, tables, idx, bus, rows, lanes=None):
            seen.append((self.record_claims, tables.total_slots,
                         _slot_bytes(tables)))
            return super()._insert_wave(batch, tables, idx, bus, rows, lanes)

    kernels = [CudaLocalAssemblyKernel(A100), HipLocalAssemblyKernel(MI250X)]
    for kern in kernels:
        kern.construct_cls = Watched
    run_ports(kernels, _contigs(), K)
    assert seen and all(recorded for recorded, _, _ in seen)
    for _, slots, held in seen:
        assert held == {"claimer": CLAIM_SLOT_BYTES * slots}


def test_no_per_slot_fingerprint_survives_construct():
    """Once ``ConstructPhase.run`` returns, the fingerprints live per key
    (``tag``); a slot keeps its row index only."""
    tables = _constructed(_contigs(), 0.2)
    assert tables.claimer is None and tables.keys is None
    assert set(_slot_bytes(tables)) == {"row"}
    rows = tables.row[tables.occupied]      # a row and a tag per key
    assert np.unique(rows).size == rows.size == tables.tag.size - 1
    assert tables.tag[rows].all()


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
    peak, _ = _traced(lambda: kern.run_schedule(contigs, (K, 33)))
    slots = max(launched)
    assert slots * CLAIM_SLOT_BYTES < peak, "the tables were not traced"
    assert peak < slots * PER_SLOT_VOTE_BYTES, \
        f"{peak / slots:.1f} B per slot: per-slot vote storage is back"
    assert peak < 2 * slots * CLAIM_SLOT_BYTES, \
        f"{peak / slots:.1f} B per slot: two launches' tables were alive"


# ----------------------------------------------------------------------
# a launch holds only what its next phase reads
# ----------------------------------------------------------------------


def test_second_end_peaks_as_if_launched_alone():
    """Deep coverage (the ``deep_multik`` shape), one k, every launch on
    its own: the right-end launch's flatten — read stream, fingerprint
    prefix, word mix — is gone before the left end is prepared, so the
    run peaks where its larger end alone does. Held through the second
    launch it added a third."""
    spec = ScenarioSpec(contig_length=220, flank_length=90, read_length=150,
                        depth=10, seed_window=60)
    contigs = [sc.contig for sc in simulate_batch(
        32, spec, np.random.default_rng(31),
        ErrorProfile(error_rate=0.005, lo_quality_fraction=0.1))]
    everyone, nobody = (np.full(len(contigs), flag) for flag in (True, False))

    def peak(call):
        kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
        kern.walk_group_slots = 0
        return _traced(lambda: call(kern))[0]

    both = peak(lambda kern: kern.run_schedule(contigs, (K,)))
    alone = max(
        peak(lambda kern: kern.run(contigs, K, pending=pending))
        for pending in ({End.RIGHT: everyone, End.LEFT: nobody},
                        {End.RIGHT: nobody, End.LEFT: everyone}))
    assert both < 1.05 * alone, \
        f"{both / 1e6:.1f} MB for both ends, {alone / 1e6:.1f} MB for one"


def _claimed(tables_cls, capacities, keys_per_warp, seed=0):
    """Tables with ``keys_per_warp`` random slots of every warp claimed,
    and those slots."""
    rng = np.random.default_rng(seed)
    tables = tables_cls(capacities, K)
    slots = np.concatenate([
        lo + rng.choice(cap, size=keys_per_warp, replace=False)
        for lo, cap in zip(tables.offsets[:-1], capacities)])
    tables.keys = slots.astype(np.uint64)       # as construct binds them
    assert tables.claim(slots, np.arange(slots.size)).all()
    return tables, slots.reshape(len(capacities), keys_per_warp)


def test_vote_flush_peaks_a_window_above_what_it_keeps():
    """1 M targets, grouped by warp as construct hands them over, into
    2 M slots holding 384 K keys: beyond the vote matrix it leaves
    behind, the flush holds the fresh rows' slot list and one stretch's
    temporaries — not 8 B per target plus 64 B per key (35 MB)."""
    from repro.kernels.vectortable import VOTE_STRETCH

    rng = np.random.default_rng(1)
    tables, claimed = _claimed(WarpHashTables, np.full(128, 1 << 14), 3000)
    targets = np.take_along_axis(
        claimed, rng.integers(0, 3000, size=(128, 1 << 13)), axis=1).ravel()
    exts = rng.integers(0, 4, size=targets.size).astype(np.uint8)
    hi = rng.random(targets.size) < 0.9
    assert targets.size == 1 << 20 > 4 * VOTE_STRETCH
    peak, kept = _traced(lambda: tables.vote(targets, exts, hi))
    assert kept >= tables.votes.nbytes == (claimed.size + 1) * 32
    assert tables.votes.sum() == targets.size
    assert peak - kept < 12e6, \
        f"{(peak - kept) / 1e6:.1f} MB of transients in one flush"


def test_vote_windows_equal_the_per_slot_oracle():
    """The totals do not depend on where a stretch's window falls:
    targets in shuffled order (every window is the whole matrix), every
    target on one key (a one-row window), and warps that straddle the
    stretch boundaries all equal the per-slot ``np.add.at`` store."""
    from repro.kernels.vectortable import VOTE_STRETCH

    rng = np.random.default_rng(2)
    caps = np.full(5, 4096)
    n = 2 * VOTE_STRETCH + 12345          # 5 warps: none ends on a boundary
    pick = np.sort(rng.integers(0, 5 * 600, size=n))
    for name, order in (("grouped", pick),
                        ("shuffled", rng.permutation(pick)),
                        ("one row", np.full(n, pick[n // 2]))):
        dense, claimed = _claimed(WarpHashTables, caps, 600)
        ref, _ = _claimed(PerSlotVotes, caps, 600)
        targets = claimed.ravel()[order]
        exts = rng.integers(0, 4, size=n).astype(np.uint8)
        hi = rng.random(n) < 0.5
        for tables in (dense, ref):
            tables.vote(targets, exts, hi)
        every = np.arange(dense.total_slots)
        for got, want in zip(dense.votes_at(every), ref.votes_at(every)):
            np.testing.assert_array_equal(got, want, err_msg=name)
        np.testing.assert_array_equal(dense.count, ref.count)


# ----------------------------------------------------------------------
# walk groups: what sharing a walk may hold
# ----------------------------------------------------------------------


def _table2_run():
    """The k = 33 dataset of the paper grid at a tenth of its size: the
    Table II shape (many contigs, 3-5 reads each) — 439 contigs in four
    bins, so 8 launches of 878 warps, all of which share one walk."""
    from repro.analysis.experiments import generate_paper_dataset
    return generate_paper_dataset(33, scale=0.1, seed=7), 33


def _batches(contigs, k):
    """The run's launch batches, as the default CUDA kernel plans them."""
    kern = CudaLocalAssemblyKernel(A100)
    return [kern.preparer.prepare(contigs, plan.bin, plan.end, k)
            for plan in kern.launch_policy.plan(contigs, k,
                                                kern.launch_config())]


def _keys(batches):
    """Distinct (warp, key) pairs the batches insert: their tables' rows."""
    return sum(np.unique(np.stack([b.ins_warp.astype(np.uint64), b.ins_fp]),
                         axis=1).shape[1] for b in batches)


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
    peak, _ = _traced(lambda: kern.run(contigs, k))
    return peak, walks, launched


def test_grouped_run_holds_the_budget_and_one_launch():
    """A run whose launches share a walk may hold, beyond what its
    largest launch holds alone, the budget's tables: 4 B for each of
    ``walk_group_slots`` slots and 45 B for each key in them — never a
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
    allowed = (ROW_SLOT_BYTES * budget
               + ROW_KEY_BYTES * _keys(_batches(contigs, k)) + alone)
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


# ----------------------------------------------------------------------
# one input, three ports: what following a lead's walk may hold
# ----------------------------------------------------------------------

#: What the lead's tape holds per walker-step: the insertion that claimed
#: the key (4 B) and a check of the vote row read (8 B).
TAPE_BYTES_PER_STEP = 12
#: What a port that shares its walk records per key: the insertion that
#: claimed it (``WarpHashTables.first``).
CLAIMER_KEY_BYTES = 4


def test_three_ports_hold_one_table_set_and_the_tape():
    """A three-port k-run may hold, beyond the lead's own run, its tape
    (:data:`TAPE_BYTES_PER_STEP` per walker-step), each key's claimer
    and the full batches of a walk group, which the followers construct
    from after the lead has walked — never a second port's tables beside
    the lead's: the tables of all three ports in one walk group took
    31 % more peak RSS on ``paper_grid``."""
    from repro.kernels import HipLocalAssemblyKernel, SyclLocalAssemblyKernel
    from repro.kernels.engine import run_ports
    from repro.simt.device import MAX1550, MI250X

    contigs, k = _table2_run()      # its 8 launches share one walk group
    kern = CudaLocalAssemblyKernel(A100)
    solo, _ = _traced(lambda: kern.run(contigs, k))
    walker_steps = kern.run(contigs, k).profile.lookups
    batches = _batches(contigs, k)
    held = sum(
        sum(a.nbytes for a in (b.codes, b.quals, b.ins_warp, b.ins_home,
                               b.ins_fp, b.ins_ext, b.ins_hi))
        for b in batches)
    three, _ = _traced(lambda: run_ports(
        [CudaLocalAssemblyKernel(A100), HipLocalAssemblyKernel(MI250X),
         SyclLocalAssemblyKernel(MAX1550)], contigs, k))
    allowed = (solo + TAPE_BYTES_PER_STEP * walker_steps + held
               + CLAIMER_KEY_BYTES * _keys(batches))
    assert walker_steps > 20_000
    assert three < allowed, \
        f"{(three - solo) / 1e6:.1f} MB over the lead's peak, " \
        f"{(allowed - solo) / 1e6:.1f} MB allowed"


# ----------------------------------------------------------------------
# prepare and construct: what a launch holds while it runs
# ----------------------------------------------------------------------


def _deep_contigs(n=64, seed=31):
    """The ``deep_multik`` shape: 150 bp reads at depth 10."""
    spec = ScenarioSpec(contig_length=220, flank_length=90, read_length=150,
                        depth=10, seed_window=60)
    return [sc.contig for sc in simulate_batch(
        n, spec, np.random.default_rng(seed),
        ErrorProfile(error_rate=0.005, lo_quality_fraction=0.1))]


def test_finish_holds_its_outputs_and_one_stretch():
    """``finish`` over a read stream many stretches long peaks at its
    outputs plus one stretch's temporaries (word mix, prefix sums, window
    starts: well under 64 B a base of :data:`VOTE_STRETCH`). Rolled over
    the whole stream at once they took 24 B a base, and the window
    starts 32 B an insertion."""
    from repro.core.binning import Bin
    from repro.kernels.engine import BatchPreparer
    from repro.kernels.vectortable import VOTE_STRETCH

    contigs = _deep_contigs()
    prep = BatchPreparer()
    flat = prep.flatten(contigs, Bin(list(range(len(contigs)))), End.RIGHT)
    assert flat.codes.size > 8 * VOTE_STRETCH
    out = []
    peak, kept = _traced(
        lambda: out.append(prep.finish(flat, contigs, End.RIGHT, K)))
    batch, = out
    outputs = sum(a.nbytes for a in (
        batch.ins_warp, batch.ins_home, batch.ins_fp, batch.ins_ext,
        batch.ins_hi, batch.ins_end, batch.seeds, batch.seed_valid,
        batch.capacities))
    assert outputs <= kept < outputs + 64 * 1024
    assert peak - kept < 64 * VOTE_STRETCH, \
        f"{(peak - kept) / 1e6:.1f} MB of finish temporaries"


#: What the probe loop holds per insertion beside the batch: the slot it
#: voted on (``final_slot``).
FINAL_SLOT_INSERTION_BYTES = 4
#: What the loop may hold beyond that, per insertion: the tally rows and
#: the log of claims past their home (9 B a claim) built so far, and one
#: wave's temporaries.
LOOP_ALLOWANCE_INSERTION_BYTES = 3


def test_probe_loop_holds_the_batch_a_claimer_a_slot_and_final_slot():
    """A deep-shaped launch (the ``deep_multik`` k = 21 shape), traced
    from the prepared batch on: through every wave the probe loop peaks
    at most at the batch, :data:`CLAIM_SLOT_BYTES` a slot,
    ``final_slot`` and the allowance. A fingerprint and a taken byte a
    slot (9 B) were 5 B a slot over, and counting the waves' insertions
    with an int64 needle cast ``ins_warp`` whole (8 B an insertion)."""
    contigs = _deep_contigs()
    kern = CudaLocalAssemblyKernel(A100)
    plan, = [p for p in kern.launch_policy.plan(contigs, K,
                                                kern.launch_config())
             if p.end is End.RIGHT]
    peaks = []

    class Watched(ConstructPhase):
        def _insert_wave(self, *args, **kwargs):
            out = super()._insert_wave(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

    tracemalloc.start()
    try:
        batch = kern.preparer.prepare(contigs, plan.bin, plan.end, K)
        held = tracemalloc.get_traced_memory()[0]   # the batch
        tracemalloc.reset_peak()
        tables = WarpHashTables(batch.capacities, K)
        Watched(kern.protocol, kern.warp_size).run(batch, tables,
                                                   EventBus())
    finally:
        tracemalloc.stop()
    inserted = batch.ins_ext.size
    assert inserted > 250_000 and tables.total_slots > inserted
    allowed = (held + CLAIM_SLOT_BYTES * tables.total_slots
               + (FINAL_SLOT_INSERTION_BYTES
                  + LOOP_ALLOWANCE_INSERTION_BYTES) * inserted)
    assert peaks and max(peaks) <= allowed, \
        f"{(max(peaks) - allowed) / tables.total_slots:.1f} B a slot over"


def _left_by_construct(kernels, run):
    """Run ``run()`` with every kernel's construct recording, at each vote
    flush, its warp width (the port), whether the batch still held its
    probe loop's inputs, and whether it held the flush's."""
    left = []

    class Recorded(ConstructPhase):
        def run(self, batch, tables, bus):
            vote = tables.vote

            def flush(*targets):
                keys = {batch.ins_warp.size, batch.ins_home.size,
                        batch.ins_fp.size}
                assert len(keys) == 1, "a partly freed batch"
                left.append((self.warp_size, keys.pop() > 0,
                             batch.ins_ext.size > 0))
                return vote(*targets)

            tables.vote = flush
            return super().run(batch, tables, bus)

    for kern in kernels:
        kern.construct_cls = Recorded
    run()
    assert left and all(ext for _, _, ext in left)
    return left


def test_a_launch_frees_its_keys_before_the_flush_when_none_rereads():
    """One port under RAISE, launching alone or in a walk group: every
    batch has dropped ``ins_warp`` / ``ins_home`` / ``ins_fp`` when the
    vote flush starts (it reads none of them); under grow-retry, which
    may subset the batch again, every batch keeps them."""
    contigs = _deep_contigs(n=12)
    for budget in (0, CudaLocalAssemblyKernel.walk_group_slots):
        for policy, kept in (("raise", False), ("grow-retry", True)):
            kern = CudaLocalAssemblyKernel(A100, overflow_policy=policy)
            kern.walk_group_slots = budget
            left = _left_by_construct(
                [kern], lambda: kern.run_schedule(contigs, (K, 33)))
            assert {keys for _, keys, _ in left} == {kept}, (budget, policy)


def test_a_coalesced_wave_frees_its_fused_keys():
    """A fused batch is the wave's own: construct drops its probe loop's
    inputs before the flush, grow-retry or not (a retry re-fuses from
    the members' batches)."""
    from repro.kernels.engine import run_schedule_coalesced

    contigs = _deep_contigs(n=12)
    for policy in ("raise", "grow-retry"):
        kern = CudaLocalAssemblyKernel(A100, overflow_policy=policy)
        left = _left_by_construct([kern], lambda: run_schedule_coalesced(
            kern, [contigs[:5], contigs[5:]], (K, 33)))
        assert not any(keys for _, keys, _ in left), policy


def test_only_the_last_port_frees_the_keys_it_shares():
    """Three ports over one input construct from the same batches: the
    lead and the middle follower keep the probe loop's inputs, the last
    port frees them."""
    from repro.kernels import HipLocalAssemblyKernel, SyclLocalAssemblyKernel
    from repro.kernels.engine import run_ports
    from repro.simt.device import MAX1550, MI250X

    contigs = _deep_contigs(n=12)
    kernels = [CudaLocalAssemblyKernel(A100), HipLocalAssemblyKernel(MI250X),
               SyclLocalAssemblyKernel(MAX1550)]
    left = _left_by_construct(kernels,
                              lambda: run_ports(kernels, contigs, K))
    kept = {}
    for port, keys, _ in left:
        kept.setdefault(port, set()).add(keys)
    widths = [kern.warp_size for kern in kernels]
    assert len(set(widths)) == 3
    assert [kept[width] for width in widths] == [{True}, {True}, {False}]
