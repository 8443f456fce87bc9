"""Walk groups: launches of a k-run that share one lockstep walk.

``LocalAssemblyKernel.run`` lets consecutive launches whose tables fit
``walk_group_slots`` construct one by one and then walk together
(DESIGN.md decision #24). A *launch* is what the simulated GPU and the
profile see; how many lockstep programs the host ran to get there must
not be observable. These tests run every scenario twice — with the
default budget and with budget 0, where every launch walks alone — and
require extensions, every profile field and the whole event stream
(type and fields) to be equal. ``run_ports`` — the three
ports of one input, the lead walking, the others following its walk in
their own tables — is held to each port's own ``run`` the same way.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import PRODUCTION_POLICY
from repro.datasets.generate import generate_paper_dataset
from repro.errors import HashTableFullError, KernelError
from repro.genomics.kmer import fingerprint_matrix
from repro.genomics.contig import End
from repro.kernels import (CudaLocalAssemblyKernel, HipLocalAssemblyKernel,
                           SyclLocalAssemblyKernel)
from repro.kernels.engine import (BatchPreparer, ConstructPhase,
                                  ContigDropped, ContigRetried, CountRecorder,
                                  LaunchDone, run_ports,
                                  run_schedule_coalesced)
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.simt.device import A100, MAX1550, MI250X

from .test_coalesce_parity import StarvedPreparer, _contigs
from .test_walk_overflow import ExactFitPreparer, _job

K = 21
PORTS = [(CudaLocalAssemblyKernel, A100), (HipLocalAssemblyKernel, MI250X),
         (SyclLocalAssemblyKernel, MAX1550)]


def _binned(seed, error_rate=0.01, read_length=80):
    """Contigs of three depth classes, beyond the launch policy's depth
    ratio of each other: at least three bins, six launches."""
    return [c for i, depth in enumerate((3, 8, 20))
            for c in _contigs(3, seed=seed + i, error_rate=error_rate,
                              depth=depth, read_length=read_length)]


@dataclasses.dataclass
class Outcome:
    result: object = None
    error: HashTableFullError | None = None
    events: list = dataclasses.field(default_factory=list)
    launches: int = 0
    walks: int = 0
    tables: list = dataclasses.field(default_factory=list)


def _run(kernel_cls, device, budget, call, **opts):
    """``call(kernel)`` on a kernel whose walk budget is ``budget``
    (``None``: the default), with every launch, walk and table counted."""
    out = Outcome()
    kern = kernel_cls(device, policy=PRODUCTION_POLICY, **opts)
    if budget is not None:
        kern.walk_group_slots = budget

    class CountedWalk(kern.walk_cls):
        def run(self, batch, tables, bus):
            out.walks += 1
            return super().run(batch, tables, bus)

    class CountedTables(kern.tables_cls):
        def __init__(self, capacities, k):
            super().__init__(capacities, k)
            out.tables.append(tuple(self.capacities.tolist()))

    kern.walk_cls, kern.tables_cls = CountedWalk, CountedTables
    out.events = kern.add_subscriber(CountRecorder()).events
    try:
        out.result = call(kern)
    except HashTableFullError as err:
        out.error = err
    out.launches = sum(isinstance(e, LaunchDone) for e in out.events)
    return out


def assert_group_parity(kernel_cls, device, call, budget=None, **opts):
    """Grouped vs one walk per launch: nothing observable may differ.
    Returns ``(grouped, alone)``."""
    grouped = _run(kernel_cls, device, budget, call, **opts)
    alone = _run(kernel_cls, device, 0, call, **opts)
    if alone.error is not None:
        # solo raising aborts mid-launch, so only the error can be equal
        got, want = grouped.error, alone.error
        assert got is not None
        assert (str(got), got.contig_id, got.k, got.capacity, got.probes) \
            == (str(want), want.contig_id, want.k, want.capacity, want.probes)
        return grouped, alone
    assert alone.walks == alone.launches
    assert grouped.events == alone.events
    got, want = grouped.result, alone.result
    assert (got.right, got.left) == (want.right, want.left)
    assert (got.degraded, got.retried) == (want.degraded, want.retried)
    assert dataclasses.asdict(got.profile) == dataclasses.asdict(want.profile)
    assert got.k == want.k
    # every launch allocated its own tables, whatever walked them
    assert sorted(grouped.tables) == sorted(alone.tables)
    return grouped, alone


class TestGroupParity:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0.0, 0.01, 0.03]),
           st.sampled_from(PORTS))
    def test_hypothesis_parity(self, seed, error_rate, port):
        contigs = _binned(seed, error_rate)
        grouped, _ = assert_group_parity(*port, lambda k: k.run(contigs, K))
        assert grouped.launches >= 6 and grouped.walks == 1

    @pytest.mark.parametrize("port,warp_size", [
        (PORTS[0], 32), (PORTS[1], 64), (PORTS[1], 32), (PORTS[2], 16),
        (PORTS[2], 32)])
    @pytest.mark.parametrize("lane_parallel_walks", [False, True])
    def test_ports_warp_sizes_and_walk_modes(self, port, warp_size,
                                             lane_parallel_walks):
        """The three ports at the widths they accept (the CUDA port is
        32-wide by construction)."""
        contigs = _binned(seed=11)
        grouped, alone = assert_group_parity(
            *port, lambda k: k.run(contigs, K),
            warp_size=warp_size, lane_parallel_walks=lane_parallel_walks)
        assert grouped.walks < alone.walks

    def test_run_schedule_over_four_k(self):
        contigs = _binned(seed=5, read_length=110)
        grouped, alone = assert_group_parity(
            CudaLocalAssemblyKernel, A100,
            lambda k: k.run_schedule(contigs, (21, 33, 55, 77)))
        assert grouped.launches == alone.launches > 12
        assert grouped.walks < alone.walks / 3

    @pytest.mark.parametrize("budget,one_walk", [(1, False), (1 << 22, True)])
    def test_budget_below_every_launch_and_above_the_run(self, budget,
                                                         one_walk):
        contigs = _binned(seed=7)
        grouped, alone = assert_group_parity(
            CudaLocalAssemblyKernel, A100, lambda k: k.run(contigs, K),
            budget=budget)
        assert max(map(sum, alone.tables)) * 2 <= (1 << 22)
        assert grouped.walks == (1 if one_walk else grouped.launches)

    def test_a_launch_over_half_the_budget_walks_alone(self):
        """Two of its size would not fit: it takes the solo path, and the
        group that was open before it walks first (solo order)."""
        contigs = _binned(seed=7)
        alone = _run(CudaLocalAssemblyKernel, A100, 0,
                     lambda k: k.run(contigs, K))
        sizes = [sum(t) for t in alone.tables]
        budget = 2 * sorted(sizes)[len(sizes) // 2]     # the median shares
        grouped, _ = assert_group_parity(
            CudaLocalAssemblyKernel, A100, lambda k: k.run(contigs, K),
            budget=budget)
        assert any(2 * s > budget for s in sizes)
        assert 1 < grouped.walks < grouped.launches

    @pytest.mark.parametrize("opts", [
        dict(memory_model="trace"), dict(sanitize="all"),
        dict(fault_injector=FaultInjector(FaultPlan(faults=())))])
    def test_diagnostic_modes_keep_one_walk_per_launch(self, opts):
        """Slot-numbered evidence and launch ordinals stay per launch."""
        contigs = _binned(seed=3)
        out = _run(CudaLocalAssemblyKernel, A100, None,
                   lambda k: k.run(contigs, K), **opts)
        assert out.walks == out.launches >= 6

    def test_record_trace_keeps_one_walk_per_launch(self):
        contigs = _binned(seed=3)
        kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
        kern.record_trace = True
        assert len(kern.run(contigs, K).trace) >= 6  # one per launch

    def test_schedule_diagnostics_cover_every_k(self):
        """A schedule's result carries the diagnostics of every k it ran:
        one slot trace per replayed launch that accessed a slot, in
        launch order (the kernel's last k only, before they moved onto
        the result); a diagnostic wave hands each job exactly its solo
        schedule's."""
        contigs = _binned(seed=5, read_length=110)
        ks = (21, 33, 55)

        def kernel():
            kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY,
                                           memory_model="trace",
                                           sanitize="all")
            kern.record_trace = True
            return kern

        res = kernel().run_schedule(contigs, ks)
        assert len({s.k for s in res.replay}) >= 2
        assert [t.size for t in res.trace] \
            == [s.accesses for s in res.replay if s.accesses]
        assert res.sanitizer_report.ok
        jobs = [contigs[:4], contigs[4:]]
        for job, c in zip(jobs, run_schedule_coalesced(kernel(), jobs, ks)):
            solo = kernel().run_schedule(job, ks)
            assert c.result.replay == solo.replay
            assert len(c.result.trace) == len(solo.trace)
            assert all(map(np.array_equal, c.result.trace, solo.trace))
            assert (c.result.sanitizer_report.findings
                    == solo.sanitizer_report.findings)


class StarvedCuda(CudaLocalAssemblyKernel):
    preparer_cls = StarvedPreparer


class WalkThenConstructPreparer(ExactFitPreparer):
    """Right-end launches (the earlier of a bin) get tables their keys
    fill exactly, so their *walk* wraps; left-end launches (the later)
    get starved tables, so their *construct* overflows."""

    def prepare(self, contigs, bin_, end, k):
        if end is End.RIGHT:
            return super().prepare(contigs, bin_, end, k)
        batch = BatchPreparer.prepare(self, contigs, bin_, end, k)
        return dataclasses.replace(
            batch, capacities=np.minimum(batch.capacities, 24))


class WalkThenConstructCuda(CudaLocalAssemblyKernel):
    preparer_cls = WalkThenConstructPreparer


class TestGroupOverflow:
    def test_drop_contig(self):
        contigs = _binned(seed=13)
        grouped, _ = assert_group_parity(
            StarvedCuda, A100, lambda k: k.run(contigs, K),
            overflow_policy="drop-contig")
        assert grouped.result.degraded
        assert any(isinstance(e, ContigDropped) for e in grouped.events)

    @pytest.mark.parametrize("max_grow_attempts", [1, 2, 8])
    def test_grow_retry_regroups_only_the_failing_warps(self,
                                                        max_grow_attempts):
        contigs = _binned(seed=13)
        grouped, alone = assert_group_parity(
            StarvedCuda, A100, lambda k: k.run(contigs, K),
            overflow_policy="grow-retry", grow_factor=3.0,
            max_grow_attempts=max_grow_attempts)
        assert grouped.result.retried
        assert any(isinstance(e, ContigRetried) for e in grouped.events)
        # the re-launches are the solo ones (same warps, same grown
        # capacities: the table multisets were compared) and they share
        # walks too: one per attempt, not one per re-launched segment
        attempts = 1 + max(e.attempt for e in grouped.events
                           if isinstance(e, ContigRetried))
        assert grouped.walks <= attempts < alone.walks

    def test_grow_retry_run_schedule(self):
        contigs = _binned(seed=17)
        assert_group_parity(
            StarvedCuda, A100, lambda k: k.run_schedule(contigs, (21, 33)),
            overflow_policy="grow-retry")

    def test_raise_rebuilds_the_error_of_the_earliest_launch(self):
        """A later launch's construct and an earlier launch's walk both
        overflow in one group; solo raising stops at the earlier one."""
        contigs = _job(seed=1, n=3)
        dropped = _run(WalkThenConstructCuda, A100, 0,
                       lambda k: k.run(contigs, K),
                       overflow_policy="drop-contig")
        assert {e.end for e in dropped.events
                if isinstance(e, ContigDropped)} == {"right", "left"}
        grouped, alone = assert_group_parity(
            WalkThenConstructCuda, A100, lambda k: k.run(contigs, K),
            overflow_policy="raise")
        assert "wrapped during walk lookup" in str(alone.error)
        assert grouped.walks == 1


# ----------------------------------------------------------------------
# one input, three ports: the lead walks, the followers follow
# ----------------------------------------------------------------------


def _ports(budget=None, preparer_cls=None, **opts):
    """Fresh CUDA / HIP / SYCL kernels, each with a ``CountRecorder``."""
    kernels = []
    for cls, device in PORTS:
        if preparer_cls is not None:
            cls = type(cls.__name__, (cls,), {"preparer_cls": preparer_cls})
        kern = cls(device, policy=PRODUCTION_POLICY, **opts)
        if budget is not None:
            kern.walk_group_slots = budget
        kern.add_subscriber(CountRecorder())
        kernels.append(kern)
    return kernels


def assert_shared_parity(contigs, k, budget=None, preparer_cls=None,
                         **opts):
    """Each port's result from one shared k-run equals its own ``run``:
    extensions, overflow sets, every profile field and the events a
    subscriber saw. Returns, per walk, whether it followed a lead."""
    kernels = _ports(budget, preparer_cls, **opts)
    walks = []
    for kern in kernels:
        class Counted(kern.walk_cls):
            def run(self, batch, tables, bus):
                walks.append(self.tape is not None
                             and self.tape.out is not None)
                return super().run(batch, tables, bus)

        kern.walk_cls = Counted
    shared = run_ports(kernels, contigs, k)
    for kern, alone, got in zip(kernels, _ports(budget, preparer_cls, **opts),
                                shared):
        want = alone.run(contigs, k)
        assert got == want
        assert dataclasses.asdict(got.profile) \
            == dataclasses.asdict(want.profile)
        assert kern.extra_subscribers[0].events \
            == alone.extra_subscribers[0].events
    return walks


class TestSharedKRun:
    @pytest.mark.parametrize("k", [21, 33, 55, 77])
    @pytest.mark.parametrize("budget", [0, 1 << 12, None])
    def test_paper_shaped_inputs(self, k, budget):
        """Table II shapes at every k, with no walk groups, small ones
        (some launches walk alone) and the default budget."""
        contigs = generate_paper_dataset(k, scale=0.005, seed=11)
        walks = assert_shared_parity(contigs, k, budget)
        # two followers per lead walk; budget 0 does not fuse, so every
        # port walks on its own
        assert sum(walks) == (0 if budget == 0 else 2 * walks.count(False))

    @pytest.mark.parametrize("seed", [5, 2024])
    def test_seeded_binned_inputs(self, seed):
        walks = assert_shared_parity(_binned(seed, error_rate=0.01), K)
        assert sum(walks) == 2 * walks.count(False) > 0

    @pytest.mark.parametrize("policy", ["drop-contig", "grow-retry"])
    @pytest.mark.parametrize("budget", [1 << 9, None])
    def test_table_pressure_falls_back(self, policy, budget):
        """A program whose lead overflowed — the ``tight`` contigs' walks
        wrap, every left end's construct overflows — is walked by every
        follower on its own; with launches walking alone, the other right
        ends are still followed."""
        contigs = _binned(seed=13) + _job(seed=1, n=3)
        walks = assert_shared_parity(
            contigs, K, budget, WalkThenConstructPreparer,
            overflow_policy=policy, grow_factor=3.0)
        assert not all(walks)
        assert any(walks) == (budget is not None)

    def test_only_a_walk_that_counts_a_tape_goes_without_links(self):
        """Construct draws the read links for every walk that finds its
        own path — the lead's, and a follower's whose lead overflowed —
        and for none that counts the lead's tape (which reads no link)."""
        contigs = _binned(seed=13) + _job(seed=1, n=3)
        kernels = _ports(1 << 9, WalkThenConstructPreparer,
                         overflow_policy="drop-contig")
        seen = []     # ("construct", links) / ("walk", follows), in order
        for kern in kernels:
            class Construct(kern.construct_cls):
                def run(self, batch, tables, bus):
                    seen.append(("construct", self.links))
                    return super().run(batch, tables, bus)

            class Walk(kern.walk_cls):
                def run(self, batch, tables, bus):
                    seen.append(("walk", self.tape is not None
                                  and self.tape.out is not None))
                    return super().run(batch, tables, bus)

            kern.construct_cls, kern.walk_cls = Construct, Walk
        run_ports(kernels, contigs, K)
        built = []
        for what, flag in seen:
            if what == "construct":
                built.append(flag)
            else:   # the walk of every table constructed since the last
                assert built and set(built) == {not flag}, seen
                built = []
        follows = [flag for what, flag in seen if what == "walk"]
        # followers that follow, and followers that walk for real
        assert follows.count(True) and follows.count(False) > len(follows) / 3

    def test_ports_that_disagree_run_alone(self):
        contigs = _binned(seed=3)
        kernels = _ports()
        kernels[2].policy = dataclasses.replace(PRODUCTION_POLICY,
                                                min_depth=2)
        shared = run_ports(kernels, contigs, K)
        alone = _ports()[2]
        alone.policy = kernels[2].policy
        assert shared[2] == alone.run(contigs, K)

    def test_a_follower_with_another_budget_follows_the_leads_groups(self):
        """Grouping is not observable, so a follower walks in the lead's
        groups whatever its own ``walk_group_slots``."""
        contigs = _binned(seed=3)
        kernels = _ports()
        kernels[1].walk_group_slots = 1 << 9
        walked = []

        class Counted(kernels[1].walk_cls):
            def run(self, batch, tables, bus):
                walked.append(self.tape is not None)
                return super().run(batch, tables, bus)

        kernels[1].walk_cls = Counted
        shared = run_ports(kernels, contigs, K)
        alone = _ports()[1]
        alone.walk_group_slots = 1 << 9
        assert walked == [True] and shared[1] == alone.run(contigs, K)

    @staticmethod
    def _bumping(rng, bump):
        """A construct that, once, hands ``bump`` the vote row of the key
        a random walker's walk reads first, to change in place."""

        class BumpOneVote(ConstructPhase):
            bumped = False

            def run(self, batch, tables, bus):
                out = super().run(batch, tables, bus)
                if not BumpOneVote.bumped:
                    w = int(rng.choice(np.flatnonzero(batch.seed_valid)))
                    fp = fingerprint_matrix(batch.seeds[w:w + 1])[0]
                    lo, hi = tables.offsets[w], tables.offsets[w + 1]
                    rows = tables.row[lo:hi]
                    bump(tables.votes[rows[(rows > 0)
                                           & (tables.tag[rows] == fp)][0]])
                    BumpOneVote.bumped = True
                return out

        return BumpOneVote

    def test_a_follower_table_that_differs_raises(self):
        """A seeded mutant bumps one vote cell — of the key warp w's walk
        reads first — in the HIP port's table: its own run just extends
        differently, but following the lead it must raise, not count."""
        contigs = _binned(seed=3)
        rng = np.random.default_rng(7)

        def bump(row):
            row[rng.integers(8)] += 1

        BumpOneVote = self._bumping(rng, bump)
        kernels = _ports()
        kernels[1].construct_cls = BumpOneVote
        with pytest.raises(KernelError, match="disagrees"):
            run_ports(kernels, contigs, K)
        BumpOneVote.bumped = False
        mutant = _ports()[1]
        mutant.construct_cls = BumpOneVote
        mutant.run(contigs, K)

    def test_compensating_vote_changes_still_raise(self):
        """Two cells of one vote row changed so that they cancel in a
        weighted sum of the row's 64-bit words (+3 in cell 1 and -1 in
        cell 3, the high halves of words weighted 1 and 3; modulo 2**64
        whatever the counts): the follower must still raise."""
        def bump(row):
            row[1] += 3
            row[3] -= 1

        kernels = _ports()
        kernels[1].construct_cls = self._bumping(np.random.default_rng(7),
                                                 bump)
        with pytest.raises(KernelError, match="disagrees"):
            run_ports(kernels, _binned(seed=3), K)
