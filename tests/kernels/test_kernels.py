"""Functional and profiling tests for the three SIMT kernel ports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import PRODUCTION_POLICY
from repro.errors import KernelError
from repro.genomics.contig import End
from repro.genomics.simulate import PERFECT_READS, ScenarioSpec, simulate_batch
from repro.kernels import (
    CudaLocalAssemblyKernel,
    HipLocalAssemblyKernel,
    SyclLocalAssemblyKernel,
    create_backend,
    kernel_for_device,
)
from repro.simt.device import A100, MAX1550, MI250X

SPEC = ScenarioSpec(contig_length=200, flank_length=60, read_length=90,
                    depth=8, seed_window=50)
KERNELS = [
    (CudaLocalAssemblyKernel, A100),
    (HipLocalAssemblyKernel, MI250X),
    (SyclLocalAssemblyKernel, MAX1550),
]


def _contigs(n=5, seed=3, spec=SPEC):
    rng = np.random.default_rng(seed)
    return [sc.contig for sc in simulate_batch(n, spec, rng, PERFECT_READS)]


class TestFunctionalEquivalence:
    """All three ports must produce exactly the CPU reference's extensions."""

    @pytest.mark.parametrize("kern_cls,dev", KERNELS,
                             ids=["cuda", "hip", "sycl"])
    def test_matches_reference(self, kern_cls, dev):
        contigs = _contigs()
        k = 21
        res = kern_cls(dev).run(contigs, k)
        ref = create_backend("scalar").run(contigs, k)
        assert res.right == ref.right
        assert res.left == ref.left

    def test_ports_agree_with_each_other(self):
        contigs = _contigs(seed=4)
        outs = []
        for kern_cls, dev in KERNELS:
            res = kern_cls(dev).run(contigs, 21)
            outs.append((tuple(res.right), tuple(res.left)))
        assert outs[0] == outs[1] == outs[2]

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_cuda_matches_reference(self, seed):
        contigs = _contigs(n=2, seed=seed)
        res = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY).run(contigs, 21)
        ref = create_backend("scalar", policy=PRODUCTION_POLICY).run(contigs, 21)
        assert res.right == ref.right

    def test_respects_read_end_hints(self):
        contigs = _contigs(n=1, seed=9)
        c = contigs[0]
        # assign all reads to the RIGHT end: left walk must see nothing
        c.read_end_hints = [End.RIGHT] * len(c.reads)
        res = CudaLocalAssemblyKernel(A100).run(contigs, 21)
        assert res.left[0][0] == ""
        assert res.right[0][0] != ""


class TestProfiles:
    def test_insert_count_matches_dataset(self):
        from repro.core.construct import insertions_for

        contigs = _contigs()
        res = CudaLocalAssemblyKernel(A100).run(contigs, 21)
        expected = sum(insertions_for(c.reads, 21) for c in contigs)
        # without hints every read serves both ends -> inserted twice
        assert res.profile.inserts == 2 * expected

    def test_predication_ordering(self):
        """Active-lane fraction: SYCL-16 > CUDA-32 > HIP-64 (same workload)."""
        contigs = _contigs(seed=5)
        fracs = {}
        for kern_cls, dev in KERNELS:
            res = kern_cls(dev).run(contigs, 21)
            fracs[kern_cls.__name__] = res.profile.active_lane_fraction
        assert fracs["SyclLocalAssemblyKernel"] > fracs["CudaLocalAssemblyKernel"]
        assert fracs["CudaLocalAssemblyKernel"] > fracs["HipLocalAssemblyKernel"]

    def test_hip_needs_more_sync_ops_than_sycl(self):
        contigs = _contigs(seed=6)
        hip = HipLocalAssemblyKernel(MI250X).run(contigs, 21).profile
        sycl = SyclLocalAssemblyKernel(MAX1550).run(contigs, 21).profile
        # HIP: 2 __all per iteration; SYCL: 1 barrier. Normalize per iteration.
        hip_iters = hip.insert_probe_iterations + hip.lookups
        sycl_iters = sycl.insert_probe_iterations + sycl.lookups
        assert hip.sync_ops / hip_iters > 0
        assert sycl.sync_ops / sycl_iters > 0

    def test_memory_traffic_positive_and_bounded(self):
        contigs = _contigs(seed=7)
        res = CudaLocalAssemblyKernel(A100).run(contigs, 21)
        p = res.profile
        assert p.hbm_bytes > 0
        # can't move more HBM bytes than total accessed bytes
        assert p.hbm_bytes <= p.l1_hit_bytes + p.l2_hit_bytes + p.hbm_bytes

    def test_probe_iterations_at_least_one_per_insert(self):
        contigs = _contigs(seed=8)
        p = CudaLocalAssemblyKernel(A100).run(contigs, 21).profile
        assert p.insert_probe_iterations >= p.inserts

    def test_cuda_fewer_probe_iterations_than_hip(self):
        """match_any merges same-key CAS losers in-iteration; HIP retries."""
        spec = ScenarioSpec(contig_length=150, flank_length=50, read_length=80,
                            depth=30, seed_window=10)  # deep: many collisions
        contigs = _contigs(n=3, seed=11, spec=spec)
        cuda = CudaLocalAssemblyKernel(A100).run(contigs, 21).profile
        hip = HipLocalAssemblyKernel(MI250X, warp_size=32).run(contigs, 21).profile
        assert cuda.inserts == hip.inserts
        assert cuda.insert_probe_iterations <= hip.insert_probe_iterations


class TestConfiguration:
    def test_cuda_rejects_other_warp_sizes(self):
        with pytest.raises(KernelError, match="32"):
            CudaLocalAssemblyKernel(A100, warp_size=64)

    def test_sycl_rejects_unsupported_subgroup(self):
        with pytest.raises(KernelError):
            SyclLocalAssemblyKernel(MAX1550, sub_group_size=12)

    def test_sycl_subgroup_property(self):
        assert SyclLocalAssemblyKernel(MAX1550).sub_group_size == 16
        assert SyclLocalAssemblyKernel(MAX1550, sub_group_size=32).sub_group_size == 32

    def test_kernel_for_device(self):
        assert isinstance(kernel_for_device(A100), CudaLocalAssemblyKernel)
        assert isinstance(kernel_for_device(MI250X), HipLocalAssemblyKernel)
        assert isinstance(kernel_for_device(MAX1550), SyclLocalAssemblyKernel)

    def test_bad_table_sizing(self):
        with pytest.raises(KernelError):
            CudaLocalAssemblyKernel(A100, table_sizing="wild_guess")

    def test_bad_parallel_scale(self):
        with pytest.raises(KernelError):
            CudaLocalAssemblyKernel(A100).run(_contigs(n=1), 21, parallel_scale=0)

    def test_exact_sizing_smaller_tables(self):
        contigs = _contigs(seed=12)
        exact = CudaLocalAssemblyKernel(A100, table_sizing="exact")
        upper = CudaLocalAssemblyKernel(A100, table_sizing="upper_bound")
        pe = exact.run(contigs, 21).profile
        pu = upper.run(contigs, 21).profile
        # same functional work, different table footprints
        assert pe.inserts == pu.inserts
