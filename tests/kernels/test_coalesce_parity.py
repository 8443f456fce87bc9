"""Multi-tenant coalescing parity: N fused jobs == N solo runs, bytewise.

The coalescing driver (`run_schedule_coalesced`, DESIGN.md decision #15)
promises that fusing jobs into one megabatch launch wave changes
*nothing observable per job*: extensions, walk states, merged profiles,
overflow/degraded/retried sets, trace-replay measurements, sanitizer
verdicts and per-type event counts must all equal a one-job-at-a-time
run. These tests drive both paths over shared scenarios — including
hypothesis-drawn job mixes, starved-table overflow under every policy,
and the fully instrumented trace + sanitize stack — and require
equality on everything.
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
from repro.kernels.engine import (BatchPreparer, ContigRetried, coalesce,
                                  run_schedule_coalesced)
from repro.resilience.checkpoint import profile_to_dict
from repro.simt.device import A100, MAX1550, MI250X


class EventCounter:
    """Counts every event by type; declares no ``handled_events``, so the
    bus forces the gated slot/barrier events on for both paths."""

    def __init__(self):
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


class TableCounter(coalesce.WarpHashTables):
    """Counts the fused tables the coalescing driver constructs."""

    built = 0

    def __init__(self, capacities, k):
        super().__init__(capacities, k)
        TableCounter.built += 1


def assert_coalesce_parity(kernel_cls, device, jobs, ks, **opts):
    """Fused vs solo: everything observable per job must be identical."""
    solo_counts = EventCounter()
    solo = []
    for job in jobs:
        kern = kernel_cls(device, policy=PRODUCTION_POLICY, **opts)
        kern.add_subscriber(solo_counts)
        try:
            res = kern.run_schedule(job, ks)
        except HashTableFullError as exc:
            solo.append(dict(err=exc))
        else:
            solo.append(dict(err=None, res=res,
                             replay=list(kern.last_replay),
                             report=kern.last_sanitizer_report))
    fused_counts = EventCounter()
    kern = kernel_cls(device, policy=PRODUCTION_POLICY, **opts)
    kern.add_subscriber(fused_counts)
    fused = run_schedule_coalesced(kern, jobs, ks)
    assert len(fused) == len(jobs)
    for s, c in zip(solo, fused):
        if s["err"] is not None:
            # solo raises mid-launch; the coalesced job must surface the
            # exact same reconstructed error instead of a result
            assert c.result is None and c.error is not None
            assert str(c.error) == str(s["err"])
            assert c.error.contig_id == s["err"].contig_id
            assert c.error.k == s["err"].k
            assert c.error.capacity == s["err"].capacity
            assert c.error.probes == s["err"].probes
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
        assert c.replay == s["replay"]
        if s["report"] is not None:
            assert c.sanitizer_report is not None
            assert c.sanitizer_report.findings == s["report"].findings
    if all(s["err"] is None for s in solo):
        # an erroring job aborts solo mid-launch, so aggregate event
        # counts are only comparable when every job completes
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

    def test_mixed_wave_trace_and_sanitizer_parity(self):
        fused = assert_coalesce_parity(
            CudaLocalAssemblyKernel, A100, _mixed_wave(), (21, 33),
            memory_model="trace", sanitize="all",
            overflow_policy="drop-contig")
        assert all(c.replay for c in fused)

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

    def test_trace_and_sanitizer_parity(self):
        """Full instrumentation: byte-accurate traced traffic plus every
        sanitizer check, fused vs solo."""
        jobs = _jobs((23, 24, 25), error_rate=0.01)
        fused = assert_coalesce_parity(
            CudaLocalAssemblyKernel, A100, jobs, (21, 33),
            memory_model="trace", sanitize="all",
            overflow_policy="drop-contig")
        assert all(c.replay for c in fused)
        assert all(c.sanitizer_report is not None for c in fused)

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

    def test_overflow_instrumented_parity(self):
        """Grow-retry with the full trace + sanitize stack attached."""
        jobs = _jobs((5, 6), error_rate=0.02, depth=8)
        assert_coalesce_parity(StarvedCudaKernel, A100, jobs, (21, 33),
                               overflow_policy="grow-retry",
                               memory_model="trace", sanitize="all")


class TestFusedLaunchStructure:
    """A wave is one lockstep program per k (per overflow attempt)."""

    def _wave(self, monkeypatch, kernel_cls, policy):
        """``(ks the wave ran, ContigRetried events)`` of a 3-job wave."""
        monkeypatch.setattr(coalesce, "WarpHashTables", TableCounter)
        monkeypatch.setattr(TableCounter, "built", 0)
        kern = kernel_cls(A100, policy=PRODUCTION_POLICY,
                          overflow_policy=policy)
        retries = kern.add_subscriber(EventCollector(ContigRetried))
        fused = run_schedule_coalesced(
            kern, _jobs((5, 6, 7), error_rate=0.02, depth=8), (21, 33))
        ks_run = max((21, 33).index(c.result.k) for c in fused) + 1
        return ks_run, retries.events

    def test_three_jobs_build_one_table_set_per_k(self, monkeypatch):
        ks_run, _ = self._wave(monkeypatch, CudaLocalAssemblyKernel,
                               "drop-contig")
        assert TableCounter.built == ks_run

    def test_grow_retry_adds_one_table_set_per_attempt(self, monkeypatch):
        ks_run, retries = self._wave(monkeypatch, StarvedCudaKernel,
                                     "grow-retry")
        assert retries
        attempts = {k: max(e.attempt for e in retries if e.k == k)
                    for k in {e.k for e in retries}}
        assert TableCounter.built == ks_run + sum(attempts.values())


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
