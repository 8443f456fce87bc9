"""Counts that follow from the problem, not from an earlier engine.

Over Table II-shaped inputs, on every port and at every k of the paper's
schedule, a k-run's profile must satisfy identities that hold by
construction of the local-assembly kernel (ROADMAP 7(a)): every read
contributes one insertion per k-mer that has a base after it, a walk
step commits one base, every walk looks a key up on each step but the
``max_walk_len`` cutoff, and a lookup reads at least one slot.
"""

import pytest

from repro.core.extension import WalkState
from repro.datasets.generate import generate_paper_dataset
from repro.genomics.contig import End
from repro.kernels import (
    CudaLocalAssemblyKernel,
    HipLocalAssemblyKernel,
    SyclLocalAssemblyKernel,
)
from repro.kernels.engine import run_ports
from repro.simt.device import A100, MAX1550, MI250X


@pytest.mark.parametrize("k", [21, 33, 55, 77])
def test_profile_counts_obey_the_kernels_identities(k):
    contigs = generate_paper_dataset(k, scale=0.01, seed=3)
    kmers = sum(max(0, len(read) - k)
                for contig in contigs for end in (End.RIGHT, End.LEFT)
                for read in contig.reads_for_end(end))
    results = run_ports([CudaLocalAssemblyKernel(A100),
                         HipLocalAssemblyKernel(MI250X),
                         SyclLocalAssemblyKernel(MAX1550)], contigs, k)
    for result in results:
        p = result.profile
        uncut = sum(state is not WalkState.MAX_LEN
                    for _, state in result.right + result.left)
        assert p.inserts == kmers
        assert p.walk_steps == p.extension_bases > 0
        assert p.lookups == p.extension_bases + uncut
        assert p.lookup_probe_iterations >= p.lookups
