"""Unit + property tests for k-mer extraction, packing and fingerprints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KmerError
from repro.genomics import kmer
from repro.genomics.dna import decode, encode

dna_strings = st.text(alphabet="ACGT", min_size=1, max_size=120)


class TestIterKmers:
    def test_basic(self):
        assert kmer.kmers_of("AGCCC", 4) == ["AGCC", "GCCC"]

    def test_k_equals_length(self):
        assert kmer.kmers_of("ACGT", 4) == ["ACGT"]

    def test_figure1_example(self):
        # Figure 1 of the paper: agccctcccg with k=4.
        got = kmer.kmers_of("AGCCCTCCCG", 4)
        assert got == ["AGCC", "GCCC", "CCCT", "CCTC", "CTCC", "TCCC", "CCCG"]

    def test_k_too_large(self):
        with pytest.raises(KmerError):
            kmer.kmers_of("ACG", 4)

    def test_k_nonpositive(self):
        with pytest.raises(KmerError):
            kmer.kmers_of("ACG", 0)

    @given(dna_strings, st.integers(1, 10))
    def test_count_matches_formula(self, s, k):
        if k <= len(s):
            assert len(kmer.kmers_of(s, k)) == len(s) - k + 1


class TestKmerMatrix:
    def test_is_view(self):
        codes = encode("ACGTACGT")
        mat = kmer.kmer_matrix(codes, 4)
        assert mat.base is not None  # no copy
        assert mat.shape == (5, 4)

    def test_rows_match_iteration(self):
        codes = encode("GATTACAGATTACA")
        mat = kmer.kmer_matrix(codes, 5)
        for i, m in enumerate(kmer.iter_kmers(codes, 5)):
            np.testing.assert_array_equal(mat[i], encode(m))


class TestPacking:
    def test_pack_known(self):
        # A=0,C=1,G=2,T=3: ACGT -> 0b00011011 = 27
        assert kmer.pack_kmer("ACGT") == 27

    def test_pack_unpack_roundtrip_long(self):
        s = "ACGT" * 20 + "GTC"  # k=83 > 64-bit capacity
        assert kmer.unpack_kmer(kmer.pack_kmer(s), len(s)) == s

    def test_pack_wrong_k(self):
        with pytest.raises(KmerError):
            kmer.pack_kmer("ACG", k=4)

    def test_unpack_rejects_negative(self):
        with pytest.raises(KmerError):
            kmer.unpack_kmer(-1, 3)

    def test_unpack_rejects_overflow(self):
        with pytest.raises(KmerError):
            kmer.unpack_kmer(1 << 10, 2)

    @given(dna_strings)
    def test_roundtrip_property(self, s):
        assert kmer.unpack_kmer(kmer.pack_kmer(s), len(s)) == s

    @given(dna_strings, dna_strings)
    def test_packing_injective(self, a, b):
        if len(a) == len(b) and a != b:
            assert kmer.pack_kmer(a) != kmer.pack_kmer(b)


class TestCanonical:
    def test_canonical_palindrome(self):
        assert kmer.canonical_kmer("ACGT") == "ACGT"  # own revcomp

    def test_canonical_picks_smaller(self):
        assert kmer.canonical_kmer("TTTT") == "AAAA"

    @given(dna_strings)
    def test_canonical_idempotent(self, s):
        c = kmer.canonical_kmer(s)
        assert kmer.canonical_kmer(c) == c


class TestCountKmers:
    def test_multiplicity(self):
        counts = kmer.count_kmers("AAAAA", 2)
        assert counts == {"AA": 4}

    def test_canonical_merges(self):
        counts = kmer.count_kmers("AATT", 2, canonical=True)
        # AA, AT, TT -> canonical AA, AT, AA
        assert counts["AA"] == 2 and counts["AT"] == 1


def reference_fingerprint(codes) -> int:
    """The k-mer fingerprint in Python ints: ``sum((c + OFFSET) *
    BASE^(k-1-j)) mod 2^64``."""
    fp = 0
    for c in codes:
        fp = (fp * 0x9E3779B97F4A7C15 + int(c) + 0x100000001B3) % (1 << 64)
    return fp


class TestFingerprints:
    def test_matches_scalar(self):
        codes = encode("GATTACAGATTACACCGT")
        fps = kmer.kmer_fingerprints(codes, 7)
        for i, m in enumerate(kmer.iter_kmers(codes, 7)):
            assert int(fps[i]) == kmer.fingerprint_of(m)

    def test_equal_kmers_equal_fingerprints(self):
        codes = encode("ACGACGACG")
        fps = kmer.kmer_fingerprints(codes, 3)
        assert fps[0] == fps[3] == fps[6]  # ACG at offsets 0,3,6

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_no_collisions_random_batch(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, size=3000, dtype=np.uint8)
        fps = kmer.kmer_fingerprints(codes, 21)
        mat = kmer.kmer_matrix(codes, 21)
        # distinct k-mers must have distinct fingerprints
        _, first_idx = np.unique(fps, return_index=True)
        uniq_kmers = {mat[i].tobytes() for i in range(mat.shape[0])}
        assert len(first_idx) == len(uniq_kmers)

    def test_dtype_uint64(self):
        fps = kmer.kmer_fingerprints(encode("ACGTACGT"), 4)
        assert fps.dtype == np.uint64


class TestRollingFingerprints:
    """The O(n) prefix-sum evaluation must be bit-identical to the
    windowed polynomial it replaced in the batch preparer."""

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 7, 21, 33, 77]))
    def test_matches_fingerprint_matrix(self, seed, k):
        """Every fingerprint producer equals the Python-int polynomial,
        as a uint64 array: a narrower accumulator wraps off it."""
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, size=max(k, 120), dtype=np.uint8)
        want = [reference_fingerprint(codes[i:i + k])
                for i in range(codes.size - k + 1)]
        for fps in (kmer.rolling_fingerprints(codes, k),
                    kmer.fingerprint_matrix(kmer.kmer_matrix(codes, k)),
                    kmer.kmer_fingerprints(codes, k)):
            assert fps.dtype == np.uint64
            assert fps.tolist() == want
        assert kmer.fingerprint_of(decode(codes[:k])) == want[0]

    def test_stretch_matches_whole_stream(self):
        """Fingerprints rolled over one stretch of a stream (as the batch
        preparer rolls them) equal the whole stream's at those windows."""
        rng = np.random.default_rng(9)
        codes = rng.integers(0, 4, size=200, dtype=np.uint8)
        for k in (21, 33, 55):
            whole = kmer.rolling_fingerprints(codes, k)
            np.testing.assert_array_equal(
                kmer.rolling_fingerprints(codes[60:170], k),
                whole[60:170 - k + 1])

    def test_k_validation(self):
        codes = np.zeros(5, dtype=np.uint8)
        with pytest.raises(KmerError):
            kmer.rolling_fingerprints(codes, 0)
        with pytest.raises(KmerError):
            kmer.rolling_fingerprints(codes, 6)


class TestShiftFingerprints:
    """A window slid one base on is recognised from the two fingerprints
    (``is_shift``) — what the walk's links are checked with."""

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 5, 21, 33]))
    def test_matches_reevaluation(self, seed, k):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, size=k + 40, dtype=np.uint8)
        fps = kmer.kmer_fingerprints(codes, k)
        assert kmer.is_shift(fps[:-1], fps[1:], codes[k:], k).all()
        # the window did not slide onto another base
        assert not kmer.is_shift(fps[:-1], fps[1:], (codes[k:] + 1) % 4,
                                 k).any()

    def test_k_equals_one(self):
        codes = np.array([0, 1, 2, 3], dtype=np.uint8)
        fps = kmer.kmer_fingerprints(codes, 1)
        assert kmer.is_shift(fps[:-1], fps[1:], codes[1:], 1).all()
