"""Overflow semantics: enriched errors, drop-contig isolation, grow-retry
byte-identity (the property the GROW_RETRY design argument claims)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import HashTableFullError, KernelError
from repro.kernels import CudaLocalAssemblyKernel, ScalarReferenceBackend
from repro.resilience import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    OverflowPolicy,
)
from repro.simt.device import A100

from .conftest import K

pytestmark = pytest.mark.resilience


def _pressured(contigs, policy, warps, capacity, **kw):
    inj = FaultInjector(FaultPlan(faults=(
        FaultSpec(FaultKind.TABLE_PRESSURE, launch=0, warps=tuple(warps),
                  capacity=capacity),
    )))
    kern = CudaLocalAssemblyKernel(A100, overflow_policy=policy,
                                   fault_injector=inj, **kw)
    return kern.run(contigs, K)


class TestPolicyParsing:
    def test_spellings(self):
        assert OverflowPolicy.parse("raise") is OverflowPolicy.RAISE
        assert OverflowPolicy.parse("drop-contig") is OverflowPolicy.DROP_CONTIG
        assert OverflowPolicy.parse(OverflowPolicy.GROW_RETRY) \
            is OverflowPolicy.GROW_RETRY

    def test_unknown_rejected(self):
        with pytest.raises(KernelError, match="unknown overflow policy"):
            OverflowPolicy.parse("explode")

    def test_kernel_validates_grow_knobs(self):
        with pytest.raises(KernelError):
            CudaLocalAssemblyKernel(A100, grow_factor=1.0)
        with pytest.raises(KernelError):
            CudaLocalAssemblyKernel(A100, max_grow_attempts=0)


class TestRaisePolicy:
    def test_enriched_error_context(self, contigs):
        with pytest.raises(HashTableFullError) as exc_info:
            _pressured(contigs, "raise", warps=(0,), capacity=4)
        err = exc_info.value
        assert err.contig_id is not None
        assert err.k == K
        assert err.capacity == 4
        assert err.probes is not None and err.probes >= err.capacity
        msg = str(err)
        assert f"k={K}" in msg and "capacity=4" in msg


class TestDropContig:
    def test_only_pressured_contigs_affected(self, contigs, clean_run):
        res = _pressured(contigs, "drop-contig", warps=(0, 1), capacity=4)
        assert res.degraded and not res.retried
        assert res.profile.contigs_dropped == len(res.degraded)
        degraded = set(res.degraded)
        for i in range(len(contigs)):
            if i in degraded:
                assert res.right[i][0] == "" or res.left[i][0] == ""
            else:
                assert res.right[i] == clean_run.right[i]
                assert res.left[i] == clean_run.left[i]


class TestGrowRetry:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(warps=st.sets(st.integers(min_value=0, max_value=7),
                         min_size=1, max_size=3),
           capacity=st.integers(min_value=2, max_value=48))
    def test_byte_identical_to_adequately_sized(self, contigs, clean_run,
                                                warps, capacity):
        res = _pressured(contigs, "grow-retry", warps=sorted(warps),
                         capacity=capacity, max_grow_attempts=12)
        assert not res.degraded
        assert res.right == clean_run.right
        assert res.left == clean_run.left

    def test_retried_contigs_recorded(self, contigs):
        res = _pressured(contigs, "grow-retry", warps=(0,), capacity=4,
                         max_grow_attempts=12)
        assert res.retried
        assert res.profile.overflow_retries >= len(res.retried)

    def test_exhausted_attempts_degrade(self, contigs):
        res = _pressured(contigs, "grow-retry", warps=(0,), capacity=2,
                         max_grow_attempts=1)
        assert res.degraded  # 2 -> 4 slots cannot hold a real contig's table
        assert res.profile.contigs_dropped == len(res.degraded)


class TestScalarBackend:
    def test_scalar_drop_contig(self, contigs):
        kern = ScalarReferenceBackend(overflow_policy="drop-contig",
                                      table_capacity=4)
        res = kern.run(contigs[:4], K)
        assert res.degraded
        assert res.profile.contigs_dropped >= len(res.degraded)

    def test_scalar_grow_retry_matches_default_sizing(self, contigs):
        ref = ScalarReferenceBackend().run(contigs[:4], K)
        res = ScalarReferenceBackend(overflow_policy="grow-retry",
                                     table_capacity=64,
                                     max_grow_attempts=12).run(contigs[:4], K)
        assert res.right == ref.right and res.left == ref.left
        assert not res.degraded

    @pytest.mark.parametrize("policy,field", [("drop-contig", "degraded"),
                                              ("grow-retry", "retried")])
    def test_scalar_run_schedule_unions_overflow_sets(self, contigs, policy,
                                                      field):
        """The schedule result carries every k-run's degraded / retried
        contigs, like the SIMT drivers' (it used to return both empty)."""
        kern = ScalarReferenceBackend(overflow_policy=policy,
                                      table_capacity=4)
        solo = getattr(kern.run(contigs[:4], K), field)
        sched = kern.run_schedule(contigs[:4], (K, 33))
        assert solo and set(solo) <= set(getattr(sched, field))
        prof = sched.profile
        assert prof.contigs_dropped + prof.overflow_retries > 0

    def test_scalar_raise_enriched(self, contigs):
        kern = ScalarReferenceBackend(table_capacity=4)
        with pytest.raises(HashTableFullError) as exc_info:
            kern.run(contigs[:2], K)
        assert exc_info.value.contig_id is not None
        assert exc_info.value.k == K
