"""Failure-injection tests: overflowing tables, adversarial inputs, traces."""

import numpy as np
import pytest

from repro.core.extension import PRODUCTION_POLICY
from repro.errors import HashTableFullError
from repro.genomics.contig import Contig
from repro.genomics.dna import decode, random_sequence
from repro.genomics.reads import Read, ReadSet
from repro.genomics.simulate import PERFECT_READS, ScenarioSpec, simulate_batch
from repro.kernels import CudaLocalAssemblyKernel
from repro.kernels.vectortable import WarpHashTables
from repro.simt.device import A100


def _contigs(n=3, seed=31):
    rng = np.random.default_rng(seed)
    spec = ScenarioSpec(contig_length=150, flank_length=40, read_length=70,
                        depth=5, seed_window=30)
    return [sc.contig for sc in simulate_batch(n, spec, rng, PERFECT_READS)]


class TestOverflow:
    def test_undersized_tables_raise(self):
        """A load factor of ~1 with heavy duplicates must not corrupt —
        overflowing a table raises, like the GPU's '*hashtable full*'."""
        contigs = _contigs()
        # force pathologically small tables via exact sizing + load_factor 1
        kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY,
                                       table_sizing="exact", load_factor=1.0)
        # exact sizing at load factor 1 leaves zero probe headroom only if
        # every k-mer is distinct; duplicates make it fit. Build a true
        # overflow with the raw table instead:
        tables = WarpHashTables(np.array([4]), k=4)
        tables.keys = np.arange(1, 6, dtype=np.uint64)
        with pytest.raises(HashTableFullError):
            for i in range(5):
                slot = tables.slot_of(np.array([0]), np.array([0]),
                                      np.array([i]))
                tables.claim(slot, np.array([i]))
        # the kernel path stays functional
        res = kern.run(contigs, 21)
        assert len(res.right) == len(contigs)


class TestAdversarialInputs:
    def test_homopolymer_contig(self):
        """All-A contigs create immediate loops, not hangs."""
        c = Contig.from_string("poly", "A" * 60)
        c.reads = ReadSet([Read.from_strings(f"r{i}", "A" * 50)
                           for i in range(4)])
        res = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY).run([c], 21)
        _, state = res.right[0]
        assert state.value in ("loop", "end")

    def test_contig_shorter_than_k(self):
        c = Contig.from_string("tiny", "ACGT")
        res = CudaLocalAssemblyKernel(A100).run([c], 21)
        bases, state = res.right[0]
        assert bases == "" and state.value == "missing"

    def test_contig_with_no_reads(self):
        c = Contig.from_string("bare", decode(
            random_sequence(100, np.random.default_rng(0))))
        res = CudaLocalAssemblyKernel(A100).run([c], 21)
        assert res.right[0][0] == ""
        assert res.profile.inserts == 0

    def test_mixed_degenerate_batch(self):
        """Normal, tiny, and read-less contigs coexist in one launch."""
        contigs = _contigs(n=2)
        contigs.append(Contig.from_string("tiny", "ACGT"))
        bare = Contig.from_string("bare", "ACGT" * 30)
        contigs.append(bare)
        res = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY).run(
            contigs, 21)
        assert len(res.right) == 4
        assert res.right[0][0] != ""  # normal contigs still extend

    def test_duplicate_reads_heavy_collisions(self):
        """Hundreds of identical reads: every wave is one giant thread
        collision; votes must still be exact."""
        seq = decode(random_sequence(60, np.random.default_rng(5)))
        c = Contig.from_string("dup", seq)
        c.reads = ReadSet([Read.from_strings(f"r{i}", seq) for i in range(200)])
        res = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY).run([c], 21)
        p = res.profile
        assert p.inserts == 2 * 200 * (60 - 21)  # both end launches
        assert p.atomics >= p.inserts  # one CAS or vote per insert minimum

    def test_periodic_read_intra_wave_collisions(self):
        """A periodic read repeats the same k-mer within one wave: lanes of
        the same warp collide on one slot, exercising the atomicCAS winner
        election plus the CUDA match_any merge path."""
        seq = "ACGT" * 20  # period 4 << warp width
        c = Contig.from_string("per", seq)
        c.reads = ReadSet([Read.from_strings("r0", seq)])
        kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
        res = kern.run([c], 8)
        p = res.profile
        # only 4 distinct 8-mers exist; every wave is one big thread collision
        assert p.atomics > p.inserts  # CAS attempts plus same-key merges
        _, state = res.right[0]
        assert state.value == "loop"  # the periodic graph is a cycle


class TestTraceRecording:
    def test_trace_disabled_by_default(self):
        kern = CudaLocalAssemblyKernel(A100)
        assert kern.run(_contigs(n=1), 21).trace == []

    def test_trace_covers_probes(self):
        contigs = _contigs(n=2)
        kern = CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)
        kern.record_trace = True
        res = kern.run(contigs, 21)
        total = sum(len(t) for t in res.trace)
        assert total == (res.profile.insert_probe_iterations
                         + res.profile.lookup_probe_iterations)
        assert all(t.dtype == np.int64 for t in res.trace)
