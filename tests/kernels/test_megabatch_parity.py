"""The megabatch engine (DESIGN.md decision #14) against the scalar code
it replaced, kept here as references: the k-merge's mask assignments
against a per-contig loop, the one vote flush per launch under starved
tables against the per-slot ``np.add.at`` store.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import PRODUCTION_POLICY, WalkState
from repro.genomics.contig import End
from repro.kernels import CudaLocalAssemblyKernel
from repro.kernels.engine import LaunchStarted, SlotWrite
from repro.kernels.engine.schedule import KSchedule, iterate_k_schedule
from repro.resilience.checkpoint import profile_to_dict
from repro.simt.device import A100

from .test_coalesce_parity import _contigs
from .test_vectortable import PerSlotVotes
from .test_walk_pinned import starved_tables


class ScalarKSchedule(KSchedule):
    """:class:`KSchedule` settling and merging one contig at a time over
    a k-run's ``(bases, WalkState)`` lists, as before the refactor."""

    def _merge(self, end: End, res) -> None:
        best, settled = self.best[end], self.settled[end]
        for i, (bases, state) in enumerate(
                res.right if end is End.RIGHT else res.left):
            if settled[i]:
                continue
            if len(bases) >= best.lens[i] or state is not WalkState.FORK:
                best.put(i, bases, state)
            if state is not WalkState.FORK:
                settled[i] = True


class TestScheduleParity:
    @pytest.mark.parametrize("policy", [
        dict(overflow_policy="drop-contig"),
        dict(overflow_policy="grow-retry", max_grow_attempts=1),
    ], ids=["drop-contig", "grow-retry"])
    def test_overflow_vote_parity(self, policy):
        """Deferred overflow against the one vote flush per launch: a lane
        that retired before its warp overflowed still votes, one that never
        retired adds none. Slot by slot the votes equal :class:`PerSlotVotes`
        fed the same flushes, warp by warp the vote ``SlotWrite`` events."""
        contigs = _contigs(5, seed=7, error_rate=0.02, depth=10)

        class VoteWrites(list):
            """Warp ids of every vote write of the first launch."""

            launches = 0

            def handle(self, event, bus):
                self.launches += isinstance(event, LaunchStarted)
                if (isinstance(event, SlotWrite) and event.kind == "vote"
                        and self.launches == 1):
                    self.append(event.warps)

        def tables_of(subscriber, **opts):
            kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY,
                                           **opts)
            kern.add_subscriber(subscriber)
            seen = []

            class Recorded(kern.tables_cls):
                """The dense store the walk reads, and the per-slot one."""

                def __init__(self, capacities, k):
                    super().__init__(capacities, k)
                    self.per_slot = PerSlotVotes(capacities, k)
                    seen.append(self)

                def vote(self, slots, exts, hi_mask):
                    super().vote(slots, exts, hi_mask)
                    self.per_slot.vote(slots, exts, hi_mask)

            kern.tables_cls = Recorded
            kern.run_schedule(contigs, (21, 33))
            return seen

        announced = VoteWrites()
        mega = tables_of(announced, **policy, fault_injector=starved_tables())
        assert len(mega) > 2
        for m in mega:
            everything = np.arange(m.total_slots)
            for got, want in zip(m.votes_at(everything),
                                 m.per_slot.votes_at(everything)):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(m.count, m.per_slot.count)

        def votes_per_warp(tables):
            return np.add.reduceat(tables.count, tables.offsets[:-1])

        clean = tables_of(VoteWrites())
        got, full = votes_per_warp(mega[0]), votes_per_warp(clean[0])
        np.testing.assert_array_equal(got, np.bincount(
            np.concatenate(announced), minlength=len(got)))
        for w in range(len(full)):
            if w in (0, 2):  # starved: some lanes retired, others never
                assert 0 < got[w] < full[w]
            else:
                assert got[w] == full[w]


class TestMergeParity:
    """`iterate_k_schedule` (mask assignments) vs the per-contig scalar
    merge loop, driven by the same deterministic backend."""

    def _both(self, contigs, ks):
        def run_one_factory():
            kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
            return lambda k, pending: kern.run(contigs, k, pending=pending)
        n, run_one = len(contigs), run_one_factory()
        vec = iterate_k_schedule(run_one_factory(), n, ks).result(None)
        sca = ScalarKSchedule(n, ks)
        for k in ks:
            if not sca.done:
                sca.add(k, run_one(k, sca.pending()))
        return vec, sca.result(None)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), err=st.sampled_from([0.0, 0.02]))
    def test_merge_decisions_match(self, seed, err):
        contigs = _contigs(3, seed, error_rate=err)
        vec, sca = self._both(contigs, (21, 33, 45))
        assert vec.k == sca.k
        assert vec.right == sca.right and vec.left == sca.left
        assert profile_to_dict(vec.profile) == profile_to_dict(sca.profile)

    def test_early_settle_breaks_identically(self):
        """Perfect reads settle every end at the first k; both merge
        loops must stop there (same last_k, same single-k profile)."""
        contigs = _contigs(4, seed=3, error_rate=0.0)
        vec, sca = self._both(contigs, (21, 33, 55))
        assert vec.k == sca.k
        assert profile_to_dict(vec.profile) == profile_to_dict(sca.profile)
