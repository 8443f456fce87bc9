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
from repro.genomics.simulate import ErrorProfile, ScenarioSpec, simulate_batch
from repro.kernels import CudaLocalAssemblyKernel, HipLocalAssemblyKernel
from repro.kernels.engine import BatchPreparer, run_schedule_coalesced
from repro.resilience.checkpoint import profile_to_dict
from repro.simt.device import A100, MI250X


class EventCounter:
    """Counts every event by type; declares no ``handled_events``, so the
    bus forces the gated slot/barrier events on for both paths."""

    def __init__(self):
        self.counts = {}

    def handle(self, event, bus):
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1


class StarvedPreparer(BatchPreparer):
    """Deterministically clamps table capacities to force overflow.

    Unlike the fault injector (per-launch ordinals, unsupported in
    coalesced mode), the clamp depends only on the batch itself, so solo
    and fused runs starve identically.
    """

    cap = 24

    def prepare(self, contigs, bin_, end, k, cache=None):
        batch = super().prepare(contigs, bin_, end, k, cache=cache)
        return dataclasses.replace(
            batch, capacities=np.minimum(batch.capacities, self.cap))


class StarvedCudaKernel(CudaLocalAssemblyKernel):
    preparer_cls = StarvedPreparer


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
