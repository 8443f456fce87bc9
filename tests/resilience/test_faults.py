"""FaultPlan / FaultInjector mechanics: determinism, matching, hooks."""

import numpy as np
import pytest

from repro.errors import BackendLaunchError, ModelError
from repro.kernels import CudaLocalAssemblyKernel
from repro.perfmodel.timing import predict_time
from repro.resilience import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
)
from repro.simt.device import A100

from .conftest import K

pytestmark = pytest.mark.resilience


class TestMatching:
    def test_spec_consumed_once(self):
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.LAUNCH_FAILURE, launch=0),
        )))
        with pytest.raises(BackendLaunchError):
            inj.begin_launch()
        assert inj.begin_launch() == 1  # charge spent; second launch clean

    def test_times_budget(self):
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.LAUNCH_FAILURE, times=2),
        )))
        for _ in range(2):
            with pytest.raises(BackendLaunchError):
                inj.begin_launch()
        inj.begin_launch()
        assert inj.counts() == {"launch-failure": 2}

    def test_launch_ordinal_filter(self):
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.LAUNCH_FAILURE, launch=2),
        )))
        assert inj.begin_launch() == 0
        assert inj.begin_launch() == 1
        with pytest.raises(BackendLaunchError):
            inj.begin_launch()

    def test_suite_crash_device_filter(self):
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.SUITE_CRASH, device="MI250X"),
        )))
        inj.before_run("A100", 21)  # no match
        with pytest.raises(InjectedCrashError):
            inj.before_run("MI250X", 21)

    def test_transient_suite_crash(self):
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.SUITE_CRASH, transient=True),
        )))
        with pytest.raises(BackendLaunchError):
            inj.before_run("A100", 21)


class TestDeterminism:
    def test_read_corruption_replays_identically(self, contigs):
        def run_once():
            inj = FaultInjector(FaultPlan(faults=(
                FaultSpec(FaultKind.READ_CORRUPTION, launch=0, fraction=0.1),
            ), seed=13))
            kern = CudaLocalAssemblyKernel(A100, fault_injector=inj)
            return kern.run(contigs, K)

        a, b = run_once(), run_once()
        assert a.right == b.right and a.left == b.left

    def test_corruption_changes_output(self, contigs, clean_run):
        # launch=None matches every launch; ample times budget covers all
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.READ_CORRUPTION, fraction=0.5, times=1000),
        ), seed=13))
        res = CudaLocalAssemblyKernel(A100, fault_injector=inj).run(contigs, K)
        assert inj.counts()["read-corruption"] >= 1
        assert res.right != clean_run.right or res.left != clean_run.left


class TestDegenerateProfile:
    @pytest.mark.parametrize("mode", ["zero-intops", "nan-bytes"])
    def test_perf_model_rejects(self, contigs, mode):
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.DEGENERATE_PROFILE, mode=mode),
        )))
        res = CudaLocalAssemblyKernel(A100, fault_injector=inj).run(contigs, K)
        if mode == "nan-bytes":
            assert np.isnan(res.profile.hbm_bytes)
        with pytest.raises(ModelError):
            predict_time(res.profile, A100)


class TestObservation:
    def test_fired_and_degraded_attribute_the_fault(self, contigs):
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.TABLE_PRESSURE, launch=0, warps=(0,),
                      capacity=4),
        )))
        kern = CudaLocalAssemblyKernel(A100, overflow_policy="drop-contig",
                                       fault_injector=inj)
        res = kern.run(contigs, K)
        # the injector says which launch and warps it clamped; the run
        # says which contig that dropped
        assert [(r.site, r.detail) for r in inj.fired] == [
            ("batch", {"launch": 0, "warps": (0,), "capacity": 4})]
        assert len(res.degraded) == 1
        assert res.profile.contigs_dropped == 1
