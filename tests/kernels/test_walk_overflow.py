"""A full table has one meaning, whatever program its launch ran in.

Construction can overflow a table, or fill it *exactly* (every slot
claimed, no insert ever probing past the capacity) — the walk's first
lookup of an absent key then finds no empty slot to stop at and wraps.
Either way the phase ends the warp and reports it (``overflowed``); the
launch driver alone settles it (``LocalAssemblyKernel._settle``): an
enriched ``HashTableFullError`` under the raise policy, a drop or a
grow-retry otherwise — the same error, sets and event stream for a
launch that walks alone, one that shares a walk group, and a wave
segment, while a wave's co-tenant job is untouched.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import PRODUCTION_POLICY, WalkState
from repro.errors import HashTableFullError
from repro.genomics.contig import End
from repro.genomics.simulate import PERFECT_READS, ScenarioSpec, simulate_batch
from repro.kernels import (CudaLocalAssemblyKernel, HipLocalAssemblyKernel,
                           SyclLocalAssemblyKernel)
from repro.kernels.engine import (BatchPreparer, ConstructPhase, EventBus,
                                  WalkPhase)
from repro.kernels.vectortable import WarpHashTables
from repro.simt.device import A100, MAX1550, MI250X

from .test_coalesce_parity import (EventCounter, _contigs, _same_error,
                                   assert_coalesce_parity)

K = 21
#: With PRODUCTION_POLICY a walk over error-free reads runs until its
#: next k-mer is absent, which is the lookup that wraps a full table.
SPEC = ScenarioSpec(contig_length=150, flank_length=60, read_length=80,
                    depth=6, seed_window=40)


class ExactFitPreparer(BatchPreparer):
    """Sizes the tables of contigs named ``tight*`` to exactly their
    distinct k-mer count: construction fills them without overflowing,
    so any lookup of an absent key wraps."""

    def prepare(self, contigs, bin_, end, k):
        batch = super().prepare(contigs, bin_, end, k)
        keys = np.unique(np.stack([batch.ins_warp.astype(np.uint64),
                                   batch.ins_fp]), axis=1)
        distinct = np.bincount(keys[0].astype(np.int64),
                               minlength=batch.n_warps)
        tight = np.array([contigs[ci].name.startswith("tight")
                          for ci in batch.contig_ids])
        return dataclasses.replace(batch, capacities=np.where(
            tight & (distinct > 0), distinct, batch.capacities))


class ExactFitCudaKernel(CudaLocalAssemblyKernel):
    preparer_cls = ExactFitPreparer


def _job(seed, n=2, prefix="tight"):
    rng = np.random.default_rng(seed)
    return [dataclasses.replace(sc.contig, name=f"{prefix}-{i}")
            for i, sc in enumerate(simulate_batch(n, SPEC, rng, PERFECT_READS))]


def _absent_seed(contig):
    """The same reads around a contig whose end k-mers they never saw."""
    codes = contig.codes.copy()
    codes[[K // 2, -1 - K // 2]] ^= 1
    return dataclasses.replace(contig, codes=codes)


def _constructed(contigs):
    """``(batch, tables)`` of the right-end launch, tables exactly full."""
    kern = ExactFitCudaKernel(A100)
    plan, = [p for p in kern.launch_policy.plan(contigs, K,
                                                kern.launch_config())
             if p.end is End.RIGHT]
    batch = kern.preparer.prepare(contigs, plan.bin, plan.end, K)
    tables = WarpHashTables(batch.capacities, K)
    res = ConstructPhase(kern.protocol, kern.warp_size).run(
        batch, tables, EventBus())
    assert not res.overflowed and tables.occupied.all()
    return batch, tables


class TestWalkLookupOverflow:
    def test_raise_policy_enriches_the_error(self):
        contigs = _job(seed=1)
        batch, tables = _constructed(contigs)
        with pytest.raises(HashTableFullError,
                           match="wrapped during walk lookup") as exc:
            ExactFitCudaKernel(A100, policy=PRODUCTION_POLICY).run(contigs, K)
        err = exc.value
        warp = batch.contig_ids.index(err.contig_id)
        assert err.k == K
        assert err.capacity == int(tables.capacities[warp])
        assert err.probes == err.capacity

    def test_deferred_overflow_terminates_the_warp(self):
        """Contig 0 misses its seed on the first step (MISSING); contig 1
        walks off the end of its reads first (END)."""
        first, second = _job(seed=1)
        batch, tables = _constructed([_absent_seed(first), second])
        out = WalkPhase(PRODUCTION_POLICY).run(batch, tables, EventBus())
        seedless, walked = (batch.contig_ids.index(ci) for ci in (0, 1))
        assert sorted(out.overflowed) == [0, 1]
        assert out.base_lens[seedless] == 0 and out.base_lens[walked] > 0
        assert out.states[seedless] is WalkState.MISSING
        assert out.states[walked] is WalkState.END

    def test_warps_wrapping_in_one_step_report_in_wrap_order(self):
        """Both seeds are absent, so both warps wrap on the first step;
        warp 1's smaller table wraps rounds earlier and is reported (and,
        under the raise policy, named) first."""
        batch, tables = _constructed([_absent_seed(c) for c in _job(seed=1)])
        assert tables.capacities[1] < tables.capacities[0]
        out = WalkPhase(PRODUCTION_POLICY).run(batch, tables, EventBus())
        assert out.overflowed == (1, 0)

    def test_coalesced_raise_rebuilds_the_solo_error(self):
        """The tight job's error equals its solo error field for field;
        the roomy co-tenant of the same launch is byte-identical to solo."""
        jobs = [_job(seed=2, prefix="roomy"), _job(seed=1)]
        fused = assert_coalesce_parity(ExactFitCudaKernel, A100, jobs,
                                       (K, 33), overflow_policy="raise")
        assert fused[0].error is None
        assert "wrapped during walk lookup" in str(fused[1].error)


# ----------------------------------------------------------------------
# one overflow, one outcome: walk groups vs one walk per launch
# ----------------------------------------------------------------------

PORTS = [(CudaLocalAssemblyKernel, A100), (HipLocalAssemblyKernel, MI250X),
         (SyclLocalAssemblyKernel, MAX1550)]


class CutPreparer(BatchPreparer):
    """Cuts the tables of contig ``cut`` to ``cap`` slots, at either end:
    its construction overflows, every other warp's does not."""

    cut, cap = 1, 8

    def prepare(self, contigs, bin_, end, k):
        batch = super().prepare(contigs, bin_, end, k)
        mine = np.array([ci == self.cut for ci in batch.contig_ids])
        return dataclasses.replace(batch, capacities=np.where(
            mine, np.minimum(batch.capacities, self.cap), batch.capacities))


def _port(kernel_cls, preparer_cls, **attrs):
    """``kernel_cls`` on a ``preparer_cls`` configured by ``attrs``."""
    return type(f"{preparer_cls.__name__}{kernel_cls.__name__}",
                (kernel_cls,),
                {"preparer_cls": type(preparer_cls.__name__, (preparer_cls,),
                                      attrs)})


@dataclasses.dataclass
class Outcome:
    result: object = None
    error: HashTableFullError | None = None
    counts: dict = dataclasses.field(default_factory=dict)
    walks: int = 0


def _outcome(kernel_cls, device, budget, call, **opts):
    """``call(kernel)`` at walk budget ``budget`` (``None``: the default),
    its walks counted and its count events tallied up to a raise."""
    out = Outcome()
    kern = kernel_cls(device, policy=PRODUCTION_POLICY, **opts)
    if budget is not None:
        kern.walk_group_slots = budget

    class CountedWalk(kern.walk_cls):
        def run(self, batch, tables, bus):
            out.walks += 1
            return super().run(batch, tables, bus)

    kern.walk_cls = CountedWalk
    out.counts = kern.add_subscriber(EventCounter()).counts
    try:
        out.result = call(kern)
    except HashTableFullError as err:
        out.error = err
    return out


class TestRaiseParity:
    """Under the raise policy a launch finishes before its overflow
    raises — whether it walked alone or in a group was picked by *table
    size*, and must not show: same error, same events before it."""

    @pytest.mark.parametrize("port", PORTS, ids=lambda p: p[0].__name__)
    @pytest.mark.parametrize("overflow", ["construct", "walk"])
    def test_grouped_and_alone_raise_alike(self, port, overflow):
        kernel_cls, device = port
        if overflow == "construct":
            kernel_cls = _port(kernel_cls, CutPreparer)
            contigs = _contigs(6, seed=3, error_rate=0.01)
            match = "overflow during construction"
        else:
            kernel_cls = _port(kernel_cls, ExactFitPreparer)
            contigs = _job(seed=2, prefix="roomy") + _job(seed=1, n=1)
            match = "wrapped during walk lookup"
        grouped = _outcome(kernel_cls, device, None,
                           lambda k: k.run(contigs, K))
        alone = _outcome(kernel_cls, device, 0, lambda k: k.run(contigs, K))
        assert grouped.walks == 1 and match in str(alone.error)
        _same_error(grouped.error, alone.error)
        assert alone.error.probes == alone.error.capacity
        # the launch that overflowed ran to its end, and raised there
        assert alone.counts["LaunchDone"] == alone.walks == 1
        assert grouped.counts == alone.counts


class TestOverflowOutcomeIgnoresGrouping:
    @settings(max_examples=12, deadline=None)
    @given(port=st.sampled_from(PORTS),
           policy=st.sampled_from(["raise", "drop-contig", "grow-retry"]),
           # all four launches share one walk / only the shallow bin's do
           budget=st.sampled_from([None, 1 << 14]),
           cut=st.integers(0, 5), seed=st.integers(0, 10_000))
    def test_hypothesis(self, port, policy, budget, cut, seed):
        kernel_cls = _port(port[0], CutPreparer, cut=cut)
        contigs = (_contigs(3, seed=seed, error_rate=0.01, depth=3)
                   + _contigs(3, seed=seed + 1, error_rate=0.01, depth=12))
        run = lambda k: k.run_schedule(contigs, (K, 33))
        grouped = _outcome(kernel_cls, port[1], budget, run,
                           overflow_policy=policy)
        alone = _outcome(kernel_cls, port[1], 0, run, overflow_policy=policy)
        assert grouped.counts == alone.counts
        if policy == "raise":
            _same_error(grouped.error, alone.error)
            assert alone.error.contig_id == cut
            return
        assert grouped.walks < alone.walks
        got, want = grouped.result, alone.result
        assert (got.right, got.left) == (want.right, want.left)
        assert (got.degraded, got.retried) == (want.degraded, want.retried)
        assert want.degraded == [cut]
        assert want.retried == ([cut] if policy == "grow-retry" else [])
        assert (got.profile.contigs_dropped, got.profile.overflow_retries) \
            == (want.profile.contigs_dropped, want.profile.overflow_retries)
        assert want.profile.contigs_dropped > 0
