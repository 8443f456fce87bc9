"""Multi-tenant coalescing parity: N fused jobs == N solo runs, bytewise.

The coalescing driver (`run_schedule_coalesced`, DESIGN.md decision #15)
promises that fusing jobs into one megabatch launch wave changes
*nothing observable per job*: extensions, walk states, merged profiles,
overflow/degraded/retried sets and per-type event counts must all equal
a one-job-at-a-time run. These tests drive both paths over shared
scenarios — including hypothesis-drawn job mixes and starved-table
overflow under every policy — and require equality on everything.

A fused program carries counts only: a *diagnostic* kernel (tracing,
trace replay, sanitizing — anything that wants slot-numbered evidence)
does not fuse, and its wave runs every job solo. Every case checks which
of the two it got by counting the table sets the kernel built.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import PRODUCTION_POLICY
from repro.errors import HashTableFullError, KernelError
from repro.genomics.contig import Contig, End
from repro.genomics.simulate import ErrorProfile, ScenarioSpec, simulate_batch
from repro.kernels import (CudaLocalAssemblyKernel, HipLocalAssemblyKernel,
                           SyclLocalAssemblyKernel)
from repro.kernels.engine import (BatchPreparer, ContigDropped,
                                  ContigRetried, LaunchDone, LaunchStarted,
                                  MemoryTrafficResolved, ProbeIteration,
                                  WalkStep, WaveExecuted, coalesce,
                                  run_schedule_coalesced)
from repro.resilience.checkpoint import profile_to_dict
from repro.simt.device import A100, MAX1550, MI250X


#: The count-bearing events: what a subscriber may ask for and still
#: leave the kernel free to fuse.
COUNT_EVENTS = (LaunchStarted, WaveExecuted, ProbeIteration, WalkStep,
                LaunchDone, MemoryTrafficResolved, ContigDropped,
                ContigRetried)


class EventCounter:
    """Counts the events it asks the bus for, by type. It asks for the
    count events: asking for everything (``handled_events=None`` forces
    the gated slot/barrier events on) makes the kernel diagnostic."""

    def __init__(self, handled_events=COUNT_EVENTS):
        self.handled_events = handled_events
        self.counts = {}

    def handle(self, event, bus):
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1


class EventCollector:
    """Keeps every event of one type."""

    def __init__(self, event_type):
        self.handled_events = (event_type,)
        self.events = []

    def handle(self, event, bus):
        if isinstance(event, self.handled_events):
            self.events.append(event)


class StarvedPreparer(BatchPreparer):
    """Deterministically clamps table capacities to force overflow.

    Unlike the fault injector (per-launch ordinals, unsupported in
    coalesced mode), the clamp depends only on the batch itself, so solo
    and fused runs starve identically.
    """

    cap = 24

    def prepare(self, contigs, bin_, end, k):
        batch = super().prepare(contigs, bin_, end, k)
        return dataclasses.replace(
            batch, capacities=np.minimum(batch.capacities, self.cap))


class StarvedCudaKernel(CudaLocalAssemblyKernel):
    preparer_cls = StarvedPreparer


class LeftStarvedPreparer(StarvedPreparer):
    """Starves only the left-end launches of contigs named ``tight*``,
    so exactly one segment of one job overflows in a fused launch."""

    def prepare(self, contigs, bin_, end, k):
        batch = BatchPreparer.prepare(self, contigs, bin_, end, k)
        tight = np.array([end is End.LEFT
                          and contigs[ci].name.startswith("tight")
                          for ci in batch.contig_ids])
        return dataclasses.replace(batch, capacities=np.where(
            tight, np.minimum(batch.capacities, self.cap), batch.capacities))


class LeftStarvedCudaKernel(CudaLocalAssemblyKernel):
    preparer_cls = LeftStarvedPreparer


class TracingLeftStarvedKernel(LeftStarvedCudaKernel):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.record_trace = True


def _contigs(n, seed, error_rate=0.0, depth=6, read_length=80):
    rng = np.random.default_rng(seed)
    spec = ScenarioSpec(contig_length=150, flank_length=60,
                        read_length=read_length, depth=depth, seed_window=40)
    errors = ErrorProfile(error_rate=error_rate,
                          lo_quality_fraction=0.1 if error_rate else 0.0)
    return [sc.contig for sc in simulate_batch(n, spec, rng, errors)]


def _jobs(seeds, n=3, error_rate=0.01, depth=6):
    return [_contigs(n, seed=s, error_rate=error_rate, depth=depth)
            for s in seeds]


def _mixed_wave():
    """A job whose plan has two bins per end (shallow + deep contigs,
    beyond the policy's depth ratio) fused with a 1-contig job: one
    launch then mixes bins, extension directions and tenants."""
    binned = (_contigs(2, seed=31, error_rate=0.01, depth=4)
              + _contigs(2, seed=32, error_rate=0.01, depth=12))
    kern = CudaLocalAssemblyKernel(A100)
    plans = kern.launch_policy.plan(binned, 21, kern.launch_config())
    assert len(plans) >= 4
    return [binned, _contigs(1, seed=33)]


def _tight(job):
    return [dataclasses.replace(c, name=f"tight-{c.name}") for c in job]


def _table_counter(kern):
    """Install a counting ``tables_cls`` on ``kern``; returns the class,
    whose ``built`` is the number of table sets the kernel constructed."""
    class TableCounter(kern.tables_cls):
        built = 0

        def __init__(self, capacities, k):
            super().__init__(capacities, k)
            TableCounter.built += 1

    kern.tables_cls = TableCounter
    return TableCounter


def _same_error(got, want):
    assert type(got) is type(want) and str(got) == str(want)
    assert (got.contig_id, got.k, got.capacity, got.probes) \
        == (want.contig_id, want.k, want.capacity, want.probes)


def assert_coalesce_parity(kernel_cls, device, jobs, ks, **opts):
    """Fused vs solo: everything observable per job must be identical."""
    def kernel():
        kern = kernel_cls(device, policy=PRODUCTION_POLICY, **opts)
        return kern, _table_counter(kern)

    solo_counts = EventCounter()
    solo, solo_tables = [], 0
    for job in jobs:
        kern, tables = kernel()
        kern.add_subscriber(solo_counts)
        try:
            res = kern.run_schedule(job, ks)
        except HashTableFullError as exc:
            solo.append(dict(err=exc))
        else:
            solo.append(dict(err=None, res=res))
        solo_tables += tables.built
    fused_counts = EventCounter()
    kern, tables = kernel()
    kern.add_subscriber(fused_counts)
    fused = run_schedule_coalesced(kern, jobs, ks)
    # every launch of a solo run builds its own tables, a fused program
    # one set for all of them — unless the kernel is diagnostic
    assert (tables.built < solo_tables) == kern._fuses()
    assert kern._fuses() or tables.built == solo_tables
    assert len(fused) == len(jobs)
    for s, c in zip(solo, fused):
        if s["err"] is not None:
            # the coalesced job must surface the exact solo error
            # instead of a result
            assert c.result is None
            _same_error(c.error, s["err"])
            continue
        assert c.error is None and c.result is not None
        res = s["res"]
        assert c.result.right == res.right
        assert c.result.left == res.left
        assert c.result.k == res.k
        assert c.result.degraded == res.degraded
        assert c.result.retried == res.retried
        assert (profile_to_dict(c.result.profile)
                == profile_to_dict(res.profile))
        assert c.result.replay == res.replay
        assert len(c.result.trace) == len(res.trace)
        assert all(map(np.array_equal, c.result.trace, res.trace))
        assert ((c.result.sanitizer_report is None)
                == (res.sanitizer_report is None))
        if res.sanitizer_report is not None:
            assert (c.result.sanitizer_report.findings
                    == res.sanitizer_report.findings)
    # an erroring job finishes the launch that overflowed before it
    # raises, solo and fused alike, so the counts agree even then
    assert fused_counts.counts == solo_counts.counts
    return fused


class TestCoalesceParity:
    @settings(max_examples=6, deadline=None)
    @given(n_jobs=st.integers(2, 4), seed=st.integers(0, 2**16),
           err=st.sampled_from([0.0, 0.01, 0.03]))
    def test_hypothesis_parity(self, n_jobs, seed, err):
        jobs = _jobs(range(seed, seed + n_jobs), error_rate=err)
        assert_coalesce_parity(CudaLocalAssemblyKernel, A100, jobs, (21, 33),
                               overflow_policy="drop-contig")

    def test_hip_protocol_parity(self):
        jobs = _jobs((11, 12), n=4, error_rate=0.01)
        assert_coalesce_parity(HipLocalAssemblyKernel, MI250X, jobs,
                               (21, 33, 45), overflow_policy="drop-contig")

    def test_sycl_protocol_parity(self):
        """Warp 16 (sub-group) waves, next-iteration loser retries."""
        jobs = _jobs((13, 14, 15), error_rate=0.01)
        assert_coalesce_parity(SyclLocalAssemblyKernel, MAX1550, jobs,
                               (21, 33), overflow_policy="drop-contig")

    @pytest.mark.parametrize("kernel_cls,device", [
        (CudaLocalAssemblyKernel, A100), (SyclLocalAssemblyKernel, MAX1550)])
    def test_bins_ends_and_tenants_share_one_launch(self, kernel_cls, device):
        assert_coalesce_parity(kernel_cls, device, _mixed_wave(), (21, 33),
                               overflow_policy="drop-contig")

    def test_uneven_job_sizes(self):
        """Jobs of different sizes settle at different ks; late waves
        fuse only the still-active jobs."""
        jobs = [_contigs(1, seed=3), _contigs(6, seed=4, error_rate=0.03),
                _contigs(2, seed=5, error_rate=0.01)]
        assert_coalesce_parity(CudaLocalAssemblyKernel, A100, jobs,
                               (21, 33, 45, 55),
                               overflow_policy="drop-contig")

    def test_single_job_wave(self):
        """A degenerate one-job wave is still exactly a solo run."""
        assert_coalesce_parity(CudaLocalAssemblyKernel, A100,
                               _jobs((42,)), (21, 33),
                               overflow_policy="drop-contig")

    def test_wave_that_logs_nothing(self):
        """A readless contig shorter than k: no insertion, no valid
        seed, so the fused launch's attribution log stays empty."""
        bare = Contig.from_string("bare", "ACGTACGTAC")
        assert_coalesce_parity(CudaLocalAssemblyKernel, A100, [[bare]],
                               (21, 33), overflow_policy="drop-contig")

    def test_launch_without_insertions_still_flushes(self):
        """The readless contig launched on its own: construct votes on
        nothing, yet the tables it hands the walk are flushed — no
        claimer or key array left, every slot on the empty row 0."""
        bare = Contig.from_string("bare", "ACGTACGTAC")
        kern = CudaLocalAssemblyKernel(A100)
        kern.walk_group_slots = 0       # each launch walks its own tables
        walked = []

        class Seen(kern.walk_cls):
            def run(self, batch, tables, bus):
                walked.append(tables)
                return super().run(batch, tables, bus)

        kern.walk_cls = Seen
        kern.run([bare], 21)
        assert walked
        for tables in walked:
            assert tables.claimer is None and tables.keys is None
            assert not tables.row.any() and tables.votes.shape == (1, 8)

    def test_overflow_drop_parity(self):
        jobs = _jobs((5, 6, 7), error_rate=0.02, depth=8)
        fused = assert_coalesce_parity(StarvedCudaKernel, A100, jobs,
                                       (21, 33),
                                       overflow_policy="drop-contig")
        assert any(c.result.degraded for c in fused)

    def test_overflow_grow_retry_parity(self):
        jobs = _jobs((5, 6, 7), error_rate=0.02, depth=8)
        fused = assert_coalesce_parity(StarvedCudaKernel, A100, jobs,
                                       (21, 33),
                                       overflow_policy="grow-retry")
        assert any(c.result.retried for c in fused)

    @pytest.mark.parametrize("policy,max_grow_attempts", [
        pytest.param("drop-contig", None, id="drop-contig"),
        pytest.param("grow-retry", None, id="grow-retry"),
        # 24 -> 48 slots is still too small: retried, then dropped
        pytest.param("grow-retry", 1, id="exhausted-retry"),
    ])
    def test_only_one_left_segment_overflows(self, policy, max_grow_attempts):
        """One job's left-end segment overflows; its right end and every
        co-tenant segment of the same launch do not."""
        jobs = _jobs((5, 6, 7), error_rate=0.02, depth=8)
        jobs[1] = _tight(jobs[1])
        fused = assert_coalesce_parity(LeftStarvedCudaKernel, A100, jobs,
                                       (21, 33), overflow_policy=policy,
                                       max_grow_attempts=max_grow_attempts)
        touched = [bool(c.result.degraded or c.result.retried) for c in fused]
        assert touched == [False, True, False]
        if max_grow_attempts is not None:
            assert fused[1].result.degraded and fused[1].result.retried

    def test_overflow_raise_parity(self):
        """RAISE: each overflowing job yields the exact solo error; jobs
        that would succeed solo are unaffected by failing co-tenants."""
        jobs = _jobs((5, 6, 7), error_rate=0.02, depth=8)
        fused = assert_coalesce_parity(StarvedCudaKernel, A100, jobs,
                                       (21, 33), overflow_policy="raise")
        assert any(c.error is not None for c in fused)

    @pytest.mark.parametrize("policy", ["raise", "drop-contig",
                                        "grow-retry"])
    @pytest.mark.parametrize("diagnostics", ["trace+sanitize",
                                             "record_trace"])
    def test_diagnostic_wave_runs_solo(self, diagnostics, policy):
        """Bins, ends and tenants, one tenant's left launches starved,
        with slot-numbered evidence wanted: the wave does not fuse (the
        helper counts as many table sets as the solo runs build), and
        results, replay measurements, traces, sanitizer findings and the
        overflow error are the solo ones under every policy."""
        jobs = _mixed_wave() + [_tight(_contigs(3, seed=6, error_rate=0.02,
                                                depth=8))]
        if diagnostics == "record_trace":
            kernel_cls, opts = TracingLeftStarvedKernel, {}
        else:
            kernel_cls = LeftStarvedCudaKernel
            opts = dict(memory_model="trace", sanitize="all")
        fused = assert_coalesce_parity(kernel_cls, A100, jobs, (21, 33),
                                       overflow_policy=policy, **opts)
        if policy == "raise":
            assert [c.error is not None for c in fused] == [False, False,
                                                            True]
            fused = fused[:2]
        else:
            assert fused[2].result.degraded or fused[2].result.retried
        if diagnostics == "record_trace":
            assert all(c.result.trace for c in fused)
        else:
            assert all(c.result.replay
                       and c.result.sanitizer_report is not None
                       for c in fused)

    def test_ungrouped_kernel_wave(self):
        """A kernel with ``walk_group_slots = 0`` fuses nothing: its wave
        is its solo runs."""
        ungrouped = type("Ungrouped", (CudaLocalAssemblyKernel,),
                         {"walk_group_slots": 0})
        assert_coalesce_parity(ungrouped, A100, _jobs((11, 12)), (21, 33),
                               overflow_policy="drop-contig")


class TestFusedLaunchStructure:
    """A wave is one lockstep program per k (per overflow attempt)."""

    def _wave(self, kernel_cls, policy):
        """``(table sets built, ks the wave ran, ContigRetried events)``
        of a 3-job wave."""
        kern = kernel_cls(A100, policy=PRODUCTION_POLICY,
                          overflow_policy=policy)
        tables = _table_counter(kern)
        retries = kern.add_subscriber(EventCollector(ContigRetried))
        fused = run_schedule_coalesced(
            kern, _jobs((5, 6, 7), error_rate=0.02, depth=8), (21, 33))
        ks_run = max((21, 33).index(c.result.k) for c in fused) + 1
        return tables.built, ks_run, retries.events

    def test_three_jobs_build_one_table_set_per_k(self):
        """... of the kernel's ``tables_cls``, not of the default store."""
        built, ks_run, _ = self._wave(CudaLocalAssemblyKernel, "drop-contig")
        assert built == ks_run

    def test_grow_retry_adds_one_table_set_per_attempt(self):
        built, ks_run, retries = self._wave(StarvedCudaKernel, "grow-retry")
        assert retries
        attempts = {k: max(e.attempt for e in retries if e.k == k)
                    for k in {e.k for e in retries}}
        assert built == ks_run + sum(attempts.values())


    def test_attribution_log_is_empty_by_the_time_jobs_replay(
            self, monkeypatch):
        """The reduction clears the list the phases share, in place —
        a launch's per-iteration arrays do not outlive its attribution."""
        phases = []

        class SpyConstruct(CudaLocalAssemblyKernel.construct_cls):
            def run(self, batch, tables, bus):
                phases.append(self)
                return super().run(batch, tables, bus)

        logs_at_replay = []
        real_replay = coalesce._replay_job_k

        def spy_replay(kernel, state, k, parallel_scale):
            logs_at_replay.append(list(phases[-1].log))
            real_replay(kernel, state, k, parallel_scale)

        monkeypatch.setattr(coalesce, "_replay_job_k", spy_replay)
        monkeypatch.setattr(CudaLocalAssemblyKernel, "construct_cls",
                            SpyConstruct)
        kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
        run_schedule_coalesced(kern, _jobs((5, 6), depth=8), (21, 33))
        assert logs_at_replay and not any(logs_at_replay)


class TestCoalesceValidation:
    def test_rejects_empty_job_list(self):
        kern = CudaLocalAssemblyKernel(A100)
        with pytest.raises(KernelError, match="at least one job"):
            run_schedule_coalesced(kern, [], (21, 33))

    def test_rejects_empty_job(self):
        kern = CudaLocalAssemblyKernel(A100)
        with pytest.raises(KernelError, match="job 1 has no contigs"):
            run_schedule_coalesced(kern, [_contigs(2, seed=1), []], (21, 33))

    def test_rejects_batch_mutating_fault_kinds(self):
        from repro.resilience import (FaultInjector, FaultKind, FaultPlan,
                                      FaultSpec)
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.TABLE_PRESSURE, warps=(0,), capacity=4),)))
        kern = CudaLocalAssemblyKernel(A100, fault_injector=inj)
        with pytest.raises(KernelError, match="table-pressure"):
            run_schedule_coalesced(kern, _jobs((1, 2)), (21, 33))

    @pytest.mark.parametrize("kind", ["SUITE_CRASH", "CHECKPOINT_CORRUPTION",
                                      "SLOW_DISK"])
    def test_rejects_kinds_that_never_fire_in_a_wave(self, kind):
        from repro.resilience import (FaultInjector, FaultKind, FaultPlan,
                                      FaultSpec)
        inj = FaultInjector(FaultPlan(faults=(FaultSpec(FaultKind[kind]),)))
        kern = CudaLocalAssemblyKernel(A100, fault_injector=inj)
        with pytest.raises(KernelError, match=FaultKind[kind].value):
            run_schedule_coalesced(kern, _jobs((1, 2)), (21, 33))

    def test_rejects_launch_ordinal_scoped_faults(self):
        from repro.resilience import (FaultInjector, FaultKind, FaultPlan,
                                      FaultSpec)
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.LAUNCH_FAILURE, launch=3),)))
        kern = CudaLocalAssemblyKernel(A100, fault_injector=inj)
        with pytest.raises(KernelError, match="fingerprint"):
            run_schedule_coalesced(kern, _jobs((1, 2)), (21, 33))

    def test_rejects_misaligned_fingerprints(self):
        from repro.resilience import FaultInjector, FaultPlan
        kern = CudaLocalAssemblyKernel(
            A100, fault_injector=FaultInjector(FaultPlan()))
        with pytest.raises(KernelError, match="fingerprints must align"):
            run_schedule_coalesced(kern, _jobs((1, 2)), (21, 33),
                                   fingerprints=["only-one"])

    def test_fingerprint_scoped_worker_crash_fires_then_clears(self):
        """A fingerprint-matched WORKER_CRASH kills the wave once; after
        the spec is spent the same wave runs clean with solo parity."""
        from repro.resilience import (FaultInjector, FaultKind, FaultPlan,
                                      FaultSpec, InjectedCrashError)
        jobs = _jobs((1, 2))
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.WORKER_CRASH, fingerprint="fpB"),)))
        kern = CudaLocalAssemblyKernel(A100, fault_injector=inj,
                                       overflow_policy="drop-contig")
        with pytest.raises(InjectedCrashError, match="worker crash"):
            run_schedule_coalesced(kern, jobs, (21, 33),
                                   fingerprints=["fpA", "fpB"])
        assert inj.counts() == {"worker-crash": 1}
        fused = run_schedule_coalesced(kern, jobs, (21, 33),
                                       fingerprints=["fpA", "fpB"])
        clean = CudaLocalAssemblyKernel(A100, overflow_policy="drop-contig")
        for job, c in zip(jobs, fused):
            solo = clean.run_schedule(job, (21, 33))
            assert c.result.right == solo.right
            assert c.result.left == solo.left

    def test_fingerprint_scoped_crash_skips_non_matching_wave(self):
        from repro.resilience import (FaultInjector, FaultKind, FaultPlan,
                                      FaultSpec)
        jobs = _jobs((1, 2))
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.WORKER_CRASH, fingerprint="elsewhere"),)))
        kern = CudaLocalAssemblyKernel(A100, fault_injector=inj,
                                       overflow_policy="drop-contig")
        fused = run_schedule_coalesced(kern, jobs, (21, 33),
                                       fingerprints=["fpA", "fpB"])
        assert all(c.error is None for c in fused)
        assert inj.counts() == {}

    def test_wave_launch_failure_is_transient(self):
        from repro.errors import BackendLaunchError
        from repro.resilience import (FaultInjector, FaultKind, FaultPlan,
                                      FaultSpec)
        jobs = _jobs((1, 2))
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.LAUNCH_FAILURE, fingerprint="fpA"),)))
        kern = CudaLocalAssemblyKernel(A100, fault_injector=inj,
                                       overflow_policy="drop-contig")
        with pytest.raises(BackendLaunchError, match="transient"):
            run_schedule_coalesced(kern, jobs, (21, 33),
                                   fingerprints=["fpA", "fpB"])
        # transient: the retry succeeds once the spec is spent
        fused = run_schedule_coalesced(kern, jobs, (21, 33),
                                       fingerprints=["fpA", "fpB"])
        assert all(c.error is None for c in fused)
