"""Counts that follow from the problem, not from an earlier engine.

Over Table II-shaped inputs, on every port and at every k of the paper's
schedule, a k-run's profile must satisfy identities that hold by
construction of the local-assembly kernel (ROADMAP 7(a)): every read
contributes one insertion per k-mer that has a base after it, a walk
step commits one base, every walk looks a key up on each step but the
``max_walk_len`` cutoff, and a lookup reads at least one slot. Every
insertion and every lookup hashes its key once, at Table V's cost.

In construct, a pending lane compares an occupied slot's key or CASes
an empty slot, and every insertion votes once: on a key found, as a CAS
winner, or merged in the same iteration (CUDA's ``__match_any_sync``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import WalkState
from repro.datasets.generate import generate_paper_dataset
from repro.genomics.contig import End
from repro.kernels import (
    CudaLocalAssemblyKernel,
    HipLocalAssemblyKernel,
    SyclLocalAssemblyKernel,
)
from repro.kernels.engine import (
    ITERATION_BASE_INSTRS,
    WALK_STEP_INTOPS,
    ProbeIteration,
    run_ports,
)
from repro.simt.device import A100, MAX1550, MI250X

from .test_coalesce_parity import EventCollector, _contigs

PORTS = [(CudaLocalAssemblyKernel, A100), (HipLocalAssemblyKernel, MI250X),
         (SyclLocalAssemblyKernel, MAX1550)]
#: INTOPs of one k-base hash (the paper's Table V, total row).
TABLE_V = {21: 215, 33: 305, 55: 457, 77: 635}


@pytest.mark.parametrize("k", [21, 33, 55, 77])
def test_profile_counts_obey_the_kernels_identities(k):
    contigs = generate_paper_dataset(k, scale=0.01, seed=3)
    kmers = sum(max(0, len(read) - k)
                for contig in contigs for end in (End.RIGHT, End.LEFT)
                for read in contig.reads_for_end(end))
    kernels = [cls(device) for cls, device in PORTS]
    for kern, result in zip(kernels, run_ports(kernels, contigs, k)):
        p = result.profile
        uncut = sum(state is not WalkState.MAX_LEN
                    for _, state in result.right + result.left)
        assert p.inserts == kmers
        assert p.walk_steps == p.extension_bases > 0
        assert p.lookups == p.extension_bases + uncut
        assert p.lookup_probe_iterations >= p.lookups
        # hash INTOPs: what each phase charges beyond its probe rounds
        probing = ITERATION_BASE_INSTRS + kern.protocol.iteration_intops
        assert (p.construct_intops - p.insert_probe_iterations * probing
                == p.inserts * TABLE_V[k])
        assert (p.walk_intops - p.lookup_probe_iterations
                * ITERATION_BASE_INSTRS - p.lookups * WALK_STEP_INTOPS
                == p.lookups * TABLE_V[k])
        assert p.intops == p.construct_intops + p.walk_intops


def assert_construct_identities(kernel_cls, device, contigs):
    kern = kernel_cls(device)   # asks for a count event: walks still group
    seen = kern.add_subscriber(EventCollector(ProbeIteration))
    result = kern.run_schedule(contigs, (21, 33))
    its = [it for it in seen.events if it.phase == "construct"]
    p = result.profile
    assert its and not result.degraded and not result.retried
    for it in its:
        assert it.key_compares + it.cas_attempts == it.lanes
        assert it.cas_attempts >= it.votes_claimed
        assert kern.protocol.merges_in_iteration or it.votes_merged == 0
    assert sum(it.lanes for it in its) == p.insert_probe_iterations
    assert sum(it.votes_matched + it.votes_claimed + it.votes_merged
               for it in its) == p.inserts


@pytest.mark.parametrize("error_rate", [0.0, 0.01, 0.03])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_construct_iterations_obey_the_insert_identities(seed, error_rate):
    contigs = _contigs(4, seed, error_rate=error_rate)
    for kernel_cls, device in PORTS:
        assert_construct_identities(kernel_cls, device, contigs)


@settings(max_examples=8, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**16),
       error_rate=st.sampled_from([0.0, 0.01, 0.03]),
       port=st.sampled_from(PORTS))
def test_insert_identities_hold_on_drawn_inputs(n, seed, error_rate, port):
    assert_construct_identities(*port, _contigs(n, seed,
                                                error_rate=error_rate))
