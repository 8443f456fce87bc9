"""The mer-walk follows its reads, and walks as Algorithm 2 does.

``WalkPhase`` finds a walk by following the links construct draws from
each vote row to its key's successor along a read, resolving a block of
rows per lockstep round; a walker pays a real hash and lookup only where
it starts, or leaves the read it is on. Whatever it follows, its bases
and terminal states must be the dict telling's
(:func:`repro.core.reference.reference_walk`), on the inputs that stress
the speculation: tandem repeats built with ``datasets.scenarios`` (the
preset's 30-base unit loops inside one block of
:data:`~repro.kernels.engine.walk.FOLLOW_BLOCK` rows, a longer unit
across two), error-bearing reads (walks leave their read mid-read),
walks cut by ``max_walk_len``, and tables filled to capacity (an absent
key's lookup wraps). Tables built by hand, without links, walk the same — one
real lookup a step.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.extension import DEFAULT_POLICY, PRODUCTION_POLICY, WalkState
from repro.core.reference import reference_table, reference_walk
from repro.datasets.scenarios import _coverage_reads, get_scenario
from repro.genomics.contig import Contig, End
from repro.genomics.dna import reverse_complement
from repro.genomics.reads import ReadSet
from repro.genomics.simulate import ErrorProfile, simulate_genome
from repro.kernels import CudaLocalAssemblyKernel
from repro.kernels.engine import (ConstructPhase, EventBus, WalkPhase,
                                  WalkTape)
from repro.kernels.engine.backend import _reverse_complement_reads
from repro.kernels.engine.tally import WALK_STEP
from repro.kernels.engine.walk import FOLLOW_BLOCK
from repro.kernels.vectortable import WarpHashTables
from repro.simt.device import A100

_ENDED = {WalkState.END, WalkState.MISSING}


def _contigs(kind: str, unit: int, error_rate: float, seed: int):
    """Three contigs whose right ends walk into a tandem repeat (or, for
    ``"plain"``, into unique sequence); their left ends walk back over
    a unique flank."""
    rng = np.random.default_rng(seed)
    preset = get_scenario("tandem_repeat").build(seed).genomes[0]
    out = []
    for i in range(3):
        flank = simulate_genome(90, rng)
        if kind == "preset":        # the preset's 30-base unit
            repeat = np.tile(preset[300:330], 6)
        elif kind == "tandem":
            repeat = np.tile(simulate_genome(unit, rng), max(4, 120 // unit))
        else:
            repeat = simulate_genome(120, rng)
        genome = np.concatenate([flank, repeat, simulate_genome(60, rng)])
        reads = ReadSet()
        _coverage_reads(genome, 10, 60, rng,
                        ErrorProfile(error_rate=error_rate,
                                     lo_quality_fraction=0.1), reads, "r")
        out.append(Contig(f"c{i}", genome[20:90].copy(), reads))
    return out


def _reference(contig: Contig, k: int, end: End, max_len: int, policy):
    """One end's walk in launch orientation, by the dict telling."""
    reads = contig.reads_for_end(end)
    if end is End.LEFT:
        reads = _reverse_complement_reads(reads)
    seed = (contig.sequence[-k:] if end is End.RIGHT
            else reverse_complement(contig.sequence[:k]))
    bases, state, _ = reference_walk(reference_table(reads, k), seed,
                                     max_len, policy)
    return bases, state


def _exact_fit(batch):
    """Capacities of exactly each warp's distinct keys: a full table."""
    keys = np.unique(np.stack([batch.ins_warp.astype(np.uint64),
                               batch.ins_fp]), axis=1)
    distinct = np.bincount(keys[0].astype(np.int64), minlength=batch.n_warps)
    return np.where(distinct > 0, distinct, batch.capacities)


def _hand_built(batch, k):
    """Tables filled one insertion at a time — claim or match along the
    probe sequence, then one vote flush — with no links."""
    tables = WarpHashTables(batch.capacities, k)
    tables.keys = batch.ins_fp      # as construct binds them
    slots = np.empty(batch.ins_warp.size, dtype=np.int64)
    for i, (w, home, fp) in enumerate(zip(batch.ins_warp.tolist(),
                                          batch.ins_home.tolist(),
                                          batch.ins_fp.tolist())):
        probe = 0
        while True:
            slot = int(tables.slot_of(np.array([w]), np.array([home]),
                                      np.array([probe]))[0])
            if not tables.occupied[slot]:
                tables.claim(np.array([slot]), np.array([i]))
            if tables.inspect(np.array([slot]))[1][0] == fp:
                break
            probe += 1
        slots[i] = slot
    tables.vote(slots, batch.ins_ext, batch.ins_hi)
    return tables


class _Counted(WalkPhase):
    """Counts the lanes of discovery's real lookups (``_arrive``'s)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.real = 0

    def _arrive(self, look, walk, tables):
        self.real += look.size
        return super()._arrive(look, walk, tables)


def _walks(contigs, k, max_len, policy, full=False, hand_built=False):
    """``(end, batch, walker, output)`` of every launch's walk."""
    kern = CudaLocalAssemblyKernel(A100, policy=policy, max_walk_len=max_len)
    for plan in kern.launch_policy.plan(contigs, k, kern.launch_config()):
        batch = kern.preparer.prepare(contigs, plan.bin, plan.end, k)
        if full:
            batch.capacities = _exact_fit(batch)
        if hand_built:
            tables = _hand_built(batch, k)
        else:
            tables = WarpHashTables(batch.capacities, k)
            ConstructPhase(kern.protocol, kern.warp_size).run(
                batch, tables, EventBus())
        walker = _Counted(policy, max_len, kern.seed)
        yield plan.end, batch, walker, walker.run(batch, tables, EventBus())


def _assert_reference(contigs, k, max_len, policy, **opts):
    """Every walk equals the dict telling; returns the outputs."""
    outs = []
    for end, batch, walker, out in _walks(contigs, k, max_len, policy,
                                          **opts):
        for w, ci in enumerate(batch.contig_ids):
            assert (out.bases[w], out.states[w]) == _reference(
                contigs[ci], k, end, max_len, policy), (ci, end)
        assert all(out.states[w] in _ENDED for w in out.overflowed)
        outs.append((walker, out))
    return outs


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["tandem", "preset", "plain"]),
       unit=st.integers(2, 2 * FOLLOW_BLOCK),
       error_rate=st.sampled_from([0.0, 0.01, 0.03]),
       max_len=st.sampled_from([4, 30, 300]), full=st.booleans(),
       production=st.booleans(), seed=st.integers(0, 2**16))
@example(kind="preset", unit=30, error_rate=0.0, max_len=300, full=False,
         production=True, seed=1)      # a loop inside one block
@example(kind="tandem", unit=FOLLOW_BLOCK + 11, error_rate=0.0, max_len=300,
         full=False, production=True, seed=2)   # a loop across two blocks
@example(kind="plain", unit=2, error_rate=0.03, max_len=4, full=True,
         production=True, seed=3)      # cut by max_walk_len, full tables
def test_walks_equal_the_reference(kind, unit, error_rate, max_len, full,
                                   production, seed):
    policy = PRODUCTION_POLICY if production else DEFAULT_POLICY
    _assert_reference(_contigs(kind, unit, error_rate, seed), 21, max_len,
                      policy, full=full)


def test_the_stressed_shapes_occur():
    """The examples above do reach what they are there for: a loop
    shorter than a block, one longer, the length cap, a wrapped lookup,
    and walks that leave their read."""
    for seed, kind, unit in ((1, "preset", 30),
                             (2, "tandem", FOLLOW_BLOCK + 11)):
        outs = _assert_reference(_contigs(kind, unit, 0.0, seed), 21, 300,
                                 PRODUCTION_POLICY)
        assert any(WalkState.LOOP in out.states for _, out in outs)
        assert all(out.rounds < out.steps for _, out in outs)
    assert 30 < FOLLOW_BLOCK
    outs = _assert_reference(_contigs("plain", 2, 0.03, 3), 21, 4,
                             PRODUCTION_POLICY, full=True)
    states = [s for _, out in outs for s in out.states]
    assert WalkState.MAX_LEN in states
    outs = _assert_reference(_contigs("plain", 2, 0.0, 3), 21, 300,
                             PRODUCTION_POLICY, full=True)
    assert any(out.overflowed for _, out in outs)
    outs = _assert_reference(_contigs("plain", 2, 0.03, 4), 21, 300,
                             PRODUCTION_POLICY)
    lanes = sum(out.base_lens.sum() + len(out.states) for _, out in outs)
    assert 0 < sum(walker.real for walker, _ in outs) < lanes


@settings(max_examples=6, deadline=None)
@given(kind=st.sampled_from(["tandem", "plain"]), unit=st.integers(2, 12),
       error_rate=st.sampled_from([0.0, 0.02]),
       max_len=st.sampled_from([6, 300]), seed=st.integers(0, 2**16))
def test_hand_built_tables_walk_with_a_lookup_a_step(kind, unit, error_rate,
                                                     max_len, seed):
    """Tables without links walk correctly, every step paying a real
    lookup: one per lookup the walk counts, and one more for a walker
    that stops on a loop or the length cap (the key its last base leads
    to is looked up to rule a loop out)."""
    for walker, out in _assert_reference(
            _contigs(kind, unit, error_rate, seed), 21, max_len,
            PRODUCTION_POLICY, hand_built=True):
        assert not out.overflowed
        extra = sum(s in (WalkState.LOOP, WalkState.MAX_LEN)
                    for s in out.states)
        lanes = sum(row[1] for row in out.rows if row[0] == WALK_STEP)
        assert walker.real == lanes + extra


def test_a_walk_without_walkers_tapes_an_empty_path():
    """No contig admits a seed: the lead looks nothing up, and a port
    following its tape walks the same empty path."""
    contigs = _contigs("plain", 2, 0.0, 5)
    _, batch, _, _ = next(_walks(contigs, 21, 30, PRODUCTION_POLICY))
    batch.seed_valid[:] = False
    kern = CudaLocalAssemblyKernel(A100)
    tables = WarpHashTables(batch.capacities, 21)
    construct = ConstructPhase(kern.protocol, kern.warp_size)
    construct.record_claims = True      # as run_ports has every port's
    construct.run(batch, tables, EventBus())
    lead, tape = WalkPhase(PRODUCTION_POLICY), WalkTape()
    lead.tape = tape
    out = lead.run(batch, tables, EventBus())
    assert tape.out is not None and tape.ins.size == 0
    follower = WalkPhase(PRODUCTION_POLICY)
    follower.tape = tape
    followed = follower.run(batch, tables, EventBus())
    assert out.steps == followed.steps == followed.iterations == 0
    assert (followed.state_codes == out.state_codes).all()
