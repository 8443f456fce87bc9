"""Prepare-stage split: a k-independent flatten, a per-k finish."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import Bin, bin_contigs
from repro.genomics.contig import End
from repro.genomics.simulate import PERFECT_READS, ScenarioSpec, simulate_batch
from repro.kernels import CudaLocalAssemblyKernel
from repro.kernels.engine import BatchPreparer
from repro.simt.device import A100

from ..genomics.test_kmer import reference_fingerprint
from ..hashing.test_murmur import _reference_murmur2

SPEC = ScenarioSpec(contig_length=200, flank_length=60, read_length=90,
                    depth=8, seed_window=50)


def _contigs(n=6, seed=3):
    rng = np.random.default_rng(seed)
    return [sc.contig for sc in simulate_batch(n, SPEC, rng, PERFECT_READS)]


def _forky_contigs(n=3, seed=5):
    """Contigs whose right walks fork at k=21 (so the schedule iterates)."""
    from repro.genomics.contig import Contig
    from repro.genomics.dna import decode, random_sequence
    from repro.genomics.reads import Read, ReadSet

    rng = np.random.default_rng(seed)
    out = []
    for j in range(n):
        core = decode(random_sequence(25, rng))
        a_pre = decode(random_sequence(60, rng))
        b_pre = decode(random_sequence(60, rng))
        a_post = decode(random_sequence(60, rng))
        b_post = decode(random_sequence(60, rng))
        contig = Contig.from_string(f"forky{j}", a_pre + core)
        reads = ReadSet()
        for i in range(4):
            reads.append(Read.from_strings(f"a{j}.{i}", a_pre + core + a_post))
            reads.append(Read.from_strings(f"b{j}.{i}", b_pre + core + b_post))
        contig.reads = reads
        out.append(contig)
    return out


def _batches_equal(a, b):
    assert a.contig_ids == b.contig_ids
    for name in ("codes", "quals", "ins_warp", "ins_home", "ins_fp",
                 "ins_ext", "ins_hi", "seeds", "seed_valid", "capacities",
                 "read_bytes_per_warp"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                      err_msg=name)


class TestPrepareSplit:
    """flatten + finish must equal the one-shot prepare, for both ends."""

    @pytest.mark.parametrize("end", [End.RIGHT, End.LEFT])
    @pytest.mark.parametrize("k", [21, 33])
    def test_cached_flatten_reproduces_fresh_prepare(self, end, k):
        contigs = _contigs()
        bins = bin_contigs(contigs, k, 2.0, None, 0.7)
        prep = BatchPreparer(seed=0)
        for b in bins:
            fresh = prep.prepare(contigs, b, end, k)
            flat = prep.flatten(contigs, b, end)   # kept by the caller
            _batches_equal(fresh, prep.finish(flat, contigs, end, k))
            _batches_equal(fresh, prep.finish(flat, contigs, end, k))

    def test_flatten_is_k_independent(self):
        contigs = _contigs(seed=7)
        bins = bin_contigs(contigs, 21, 2.0, None, 0.7)
        prep = BatchPreparer(seed=0)
        flat = prep.flatten(contigs, bins[0], End.RIGHT)
        b21 = prep.finish(flat, contigs, End.RIGHT, 21)
        b33 = prep.finish(flat, contigs, End.RIGHT, 33)
        # per-k arrays genuinely differ across k...
        assert b21.seeds.shape[1] == 21 and b33.seeds.shape[1] == 33
        assert b21.ins_warp.size > b33.ins_warp.size
        # ...while the flat stream is shared, and is what a fresh
        # prepare at either k builds
        assert b21.codes is b33.codes is flat.codes
        _batches_equal(b21, prep.prepare(contigs, bins[0], End.RIGHT, 21))
        _batches_equal(b33, prep.prepare(contigs, bins[0], End.RIGHT, 33))

    def test_upper_bound_capacities_are_k_independent(self):
        contigs = _contigs(seed=8)
        bins = bin_contigs(contigs, 21, 2.0, None, 0.7)
        prep = BatchPreparer(seed=0)
        b21 = prep.prepare(contigs, bins[0], End.RIGHT, 21)
        b33 = prep.prepare(contigs, bins[0], End.RIGHT, 33)
        np.testing.assert_array_equal(b21.capacities, b33.capacities)


class TestStreamedHashing:
    """``finish`` hashes a stretch of whole reads at a time; what it
    writes equals hashing every window on its own."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([21, 33, 55, 77]),
           # read length minus k, per read per contig: <= 0 inserts nothing
           offsets=st.lists(st.lists(st.integers(-25, 60), max_size=5),
                            min_size=1, max_size=4),
           end=st.sampled_from([End.RIGHT, End.LEFT]),
           sizing=st.sampled_from(["upper_bound", "exact"]),
           stretch=st.sampled_from([1, 50, 200, 1 << 15]),
           seed=st.integers(0, 2**32 - 1))
    def test_stretches_equal_explicit_windows(self, k, offsets, end, sizing,
                                              stretch, seed):
        from repro.genomics.contig import Contig
        from repro.genomics.dna import reverse_complement
        from repro.genomics.reads import DEFAULT_QUAL_THRESHOLD, Read, ReadSet
        from repro.kernels.engine import prepare

        rng = np.random.default_rng(seed)
        contigs, windows, exts, his, warps = [], [], [], [], []
        for c, lens in enumerate(offsets):
            reads = ReadSet()
            for i, d in enumerate(lens):
                n = max(1, k + d)
                codes = rng.integers(0, 4, size=n).astype(np.uint8)
                quals = rng.integers(2, 41, size=n).astype(np.uint8)
                reads.append(Read(f"r{c}.{i}", codes, quals))
                if end is End.LEFT:     # the launch walks the mirrored read
                    codes, quals = reverse_complement(codes), quals[::-1]
                for s in range(n - k):
                    windows.append(codes[s:s + k])
                    exts.append(codes[s + k])
                    his.append(quals[s + k] >= DEFAULT_QUAL_THRESHOLD)
                    warps.append(c)
            contig = Contig("c", rng.integers(0, 4, size=40).astype(np.uint8),
                            reads)
            contigs.append(contig)
        prep = BatchPreparer(seed=seed % 97, table_sizing=sizing)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prepare, "VOTE_STRETCH", stretch)
            batch = prep.prepare(contigs, Bin(list(range(len(contigs)))),
                                 end, k)
        assert batch.ins_home.tolist() == [
            _reference_murmur2(w.tobytes(), seed % 97) for w in windows]
        assert batch.ins_fp.tolist() == list(map(reference_fingerprint,
                                                 windows))
        np.testing.assert_array_equal(batch.ins_ext,
                                      np.asarray(exts, dtype=np.uint8))
        np.testing.assert_array_equal(batch.ins_hi, np.asarray(his, bool))
        np.testing.assert_array_equal(batch.ins_warp, warps)
        assert batch.ins_home.dtype == np.uint32
        assert batch.ins_fp.dtype == np.uint64


class TestScheduleFlattens:
    def test_schedule_equals_bare_runs(self):
        contigs = _forky_contigs(seed=6)
        scheduled = CudaLocalAssemblyKernel(A100).run_schedule(contigs,
                                                               (21, 33))
        assert scheduled.k == 33  # the forks forced the second k to run
        # replay the schedule through bare run() calls
        from repro.kernels.engine import iterate_k_schedule

        bare = CudaLocalAssemblyKernel(A100)
        folded = iterate_k_schedule(
            lambda k, pending: bare.run(contigs, k, pending=pending),
            len(contigs), (21, 33)).result(None)
        assert scheduled.k == folded.k
        assert tuple(scheduled.right) == tuple(folded.right)
        assert tuple(scheduled.left) == tuple(folded.left)
        assert scheduled.profile == folded.profile

    def test_schedule_profile_counts_its_flattens(self):
        """The three ``prep_cache_*`` keys are schema: one flatten per
        launch (nothing overflows here, so no launch is a re-launch),
        never a hit, never an eviction — and none outside a schedule."""
        contigs = _forky_contigs(seed=8)
        kern = CudaLocalAssemblyKernel(A100)
        profile = kern.run_schedule(contigs, (21, 33)).profile
        assert profile.prep_cache_misses == profile.kernels_launched > 2
        assert profile.prep_cache_hits == 0
        assert profile.prep_cache_evictions == 0
        assert kern.run(contigs, 21).profile.prep_cache_misses == 0


class TestSubsetBatchValidation:
    """subset_batch edge cases: duplicates and out-of-range ids used to
    silently misalign capacities; now they raise."""

    def _batch(self, n=5, k=21):
        from repro.kernels.engine import BatchPreparer

        contigs = _contigs(n=n, seed=9)
        prep = BatchPreparer()
        bins = bin_contigs(contigs, k)
        return prep.prepare(contigs, bins[0], End.RIGHT, k)

    def test_empty_subset_rejected(self):
        from repro.errors import KernelError
        from repro.kernels.engine import subset_batch

        with pytest.raises(KernelError, match="at least one warp id"):
            subset_batch(self._batch(), [])

    def test_out_of_range_rejected(self):
        from repro.errors import KernelError
        from repro.kernels.engine import subset_batch

        batch = self._batch()
        with pytest.raises(KernelError, match="out of range"):
            subset_batch(batch, [0, batch.n_warps])
        with pytest.raises(KernelError, match="out of range"):
            subset_batch(batch, [-1])

    def test_duplicates_rejected(self):
        from repro.errors import KernelError
        from repro.kernels.engine import subset_batch

        with pytest.raises(KernelError, match="duplicate warp ids"):
            subset_batch(self._batch(), [2, 1, 2])

    def test_full_subset_roundtrips(self):
        from repro.kernels.engine import subset_batch

        batch = self._batch()
        again = subset_batch(batch, list(range(batch.n_warps)))
        _batches_equal(batch, again)

    def test_reordered_ids_match_sorted(self):
        """Ids in any order produce the same (warp-sorted) batch, with
        capacities following their warp."""
        from repro.kernels.engine import subset_batch

        batch = self._batch()
        caps = [7, 11, 13]
        fwd = subset_batch(batch, [1, 3, 4], caps)
        rev = subset_batch(batch, [4, 1, 3], [13, 7, 11])
        _batches_equal(fwd, rev)
        np.testing.assert_array_equal(fwd.capacities, [7, 11, 13])


class TestConcatBatches:
    def _prepare(self, n, seed, k=21):
        from repro.kernels.engine import BatchPreparer

        contigs = _contigs(n=n, seed=seed)
        prep = BatchPreparer()
        bins = bin_contigs(contigs, k)
        return prep.prepare(contigs, bins[0], End.RIGHT, k)

    def test_fused_layout(self):
        from repro.kernels.engine import concat_batches, subset_batch

        a = self._prepare(3, seed=1)
        b = self._prepare(2, seed=2)
        fused, base = concat_batches([a, b])
        np.testing.assert_array_equal(base, [0, a.n_warps, a.n_warps + b.n_warps])
        assert fused.n_warps == a.n_warps + b.n_warps
        assert fused.contig_ids == a.contig_ids + b.contig_ids
        np.testing.assert_array_equal(
            fused.capacities, np.concatenate([a.capacities, b.capacities]))
        np.testing.assert_array_equal(
            fused.ins_warp,
            np.concatenate([a.ins_warp, b.ins_warp + a.n_warps]))
        # insertion payloads concatenate unchanged
        for name in ("ins_home", "ins_fp", "ins_ext", "ins_hi"):
            np.testing.assert_array_equal(
                getattr(fused, name),
                np.concatenate([getattr(a, name), getattr(b, name)]),
                err_msg=name)

    def test_requires_matching_k(self):
        from repro.errors import KernelError
        from repro.kernels.engine import concat_batches

        with pytest.raises(KernelError, match="different k"):
            concat_batches([self._prepare(2, seed=1, k=21),
                            self._prepare(2, seed=2, k=33)])

    def test_requires_batches(self):
        from repro.errors import KernelError
        from repro.kernels.engine import concat_batches

        with pytest.raises(KernelError, match="at least one batch"):
            concat_batches([])
