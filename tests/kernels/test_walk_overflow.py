"""The walk-lookup overflow path: a lookup that wraps a completely full table.

Construction can fill a table *exactly* (every slot claimed, no insert
ever probing past the capacity); the walk's first lookup of an absent
key then finds no empty slot to stop at and wraps. The raise policy must
turn that into an enriched ``HashTableFullError``, deferred overflow into
a terminated warp reported in ``WalkOutput.overflowed``, and the
coalescing driver must rebuild the solo error (``_solo_overflow_error``,
walk branch) while the co-tenant job is untouched.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.extension import PRODUCTION_POLICY, WalkState
from repro.errors import HashTableFullError
from repro.genomics.contig import End
from repro.genomics.simulate import PERFECT_READS, ScenarioSpec, simulate_batch
from repro.kernels import CudaLocalAssemblyKernel
from repro.kernels.engine import (BatchPreparer, ConstructPhase, EventBus,
                                  WalkPhase)
from repro.kernels.vectortable import WarpHashTables
from repro.simt.device import A100

from .test_coalesce_parity import assert_coalesce_parity

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
        batch, tables = _constructed(_job(seed=1))
        with pytest.raises(HashTableFullError,
                           match="wrapped during walk lookup") as exc:
            WalkPhase(PRODUCTION_POLICY).run(batch, tables, EventBus())
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
        out = WalkPhase(PRODUCTION_POLICY, defer_overflow=True).run(
            batch, tables, EventBus())
        seedless, walked = (batch.contig_ids.index(ci) for ci in (0, 1))
        assert sorted(out.overflowed) == [0, 1]
        assert out.base_lens[seedless] == 0 and out.base_lens[walked] > 0
        assert out.states[seedless] is WalkState.MISSING
        assert out.states[walked] is WalkState.END

    def test_coalesced_raise_rebuilds_the_solo_error(self):
        """The tight job's error equals its solo error field for field;
        the roomy co-tenant of the same launch is byte-identical to solo."""
        jobs = [_job(seed=2, prefix="roomy"), _job(seed=1)]
        fused = assert_coalesce_parity(ExactFitCudaKernel, A100, jobs,
                                       (K, 33), overflow_policy="raise")
        assert fused[0].error is None
        assert "wrapped during walk lookup" in str(fused[1].error)
