"""Property-based invariants of the kernel profiles.

Whatever the workload, the measured counters must satisfy the structural
relations of the execution model — these catch accounting bugs that
functional tests cannot see.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import PRODUCTION_POLICY
from repro.genomics.simulate import ErrorProfile, ScenarioSpec, simulate_batch
from repro.kernels import (
    BACKENDS,
    CudaLocalAssemblyKernel,
    HipLocalAssemblyKernel,
    create_backend,
)
from repro.simt.counters import KernelProfile
from repro.simt.device import A100, MI250X


def _run(seed, kern_cls=CudaLocalAssemblyKernel, device=A100, n=3):
    rng = np.random.default_rng(seed)
    spec = ScenarioSpec(contig_length=150, flank_length=50, read_length=70,
                        depth=int(rng.integers(2, 10)), seed_window=40)
    contigs = [sc.contig for sc in
               simulate_batch(n, spec, rng, ErrorProfile(error_rate=0.003))]
    kern = kern_cls(device, policy=PRODUCTION_POLICY)
    return kern.run(contigs, 21)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_integer_counters_stay_exact_ints(backend):
    # a float reaching an INTOP path (a true division, a 0.5) shows as a
    # float in the field that sums it
    rng = np.random.default_rng(11)
    spec = ScenarioSpec(contig_length=150, flank_length=50, read_length=70,
                        depth=6, seed_window=40)
    contigs = [sc.contig for sc in
               simulate_batch(3, spec, rng, ErrorProfile(error_rate=0.003))]
    p = create_backend(backend).run_schedule(contigs, (21, 33)).profile
    fields = [f.name for f in dataclasses.fields(KernelProfile)
              if f.type in (int, "int")]
    assert "intops" in fields and "construct_intops" in fields
    assert p.inserts > 0
    for name in fields:
        assert type(getattr(p, name)) is int, (name, getattr(p, name))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_intops_partition(seed):
    p = _run(seed).profile
    assert p.intops == p.construct_intops + p.walk_intops


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_lane_bounded_by_warp_instructions(seed):
    p = _run(seed).profile
    assert 0 < p.lane_instructions <= p.warp_instructions * p.warp_size
    assert 0.0 < p.active_lane_fraction <= 1.0


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_probe_iterations_cover_operations(seed):
    p = _run(seed).profile
    assert p.insert_probe_iterations >= p.inserts
    assert p.lookup_probe_iterations >= p.lookups


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_extension_bases_equal_walk_steps(seed):
    res = _run(seed)
    p = res.profile
    assert p.extension_bases == p.walk_steps
    assert p.extension_bases == sum(
        len(b) for side in (res.right, res.left) for b, _ in side)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_memory_accounting_positive_and_consistent(seed):
    p = _run(seed).profile
    assert p.hbm_bytes > 0
    assert p.l1_hit_bytes >= 0 and p.l2_hit_bytes >= 0
    assert 0.0 <= p.cache_hit_fraction < 1.0
    assert p.construct_chain_cycles > 0
    assert p.walk_chain_cycles >= 0


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10_000))
def test_hip_wider_warp_fewer_waves_lower_activity(seed):
    """Same workload on 32- vs 64-wide warps: the wider warp issues fewer
    warp-instructions but wastes more lanes."""
    p32 = _run(seed, CudaLocalAssemblyKernel, A100).profile
    p64 = _run(seed, HipLocalAssemblyKernel, MI250X).profile
    assert p64.warp_instructions < p32.warp_instructions
    assert p64.active_lane_fraction < p32.active_lane_fraction
    # identical functional work
    assert p64.inserts == p32.inserts
    assert p64.extension_bases == p32.extension_bases


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10_000))
def test_launch_count_even(seed):
    """One right + one left launch per bin."""
    p = _run(seed).profile
    assert p.kernels_launched % 2 == 0
    assert p.kernels_launched >= 2
