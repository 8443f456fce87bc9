"""Tests for k-mer analysis: Bloom filter + error-filtered counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KmerError
from repro.genomics.reads import Read, ReadSet
from repro.genomics.simulate import PERFECT_READS, sequence_read, simulate_genome
from repro.metahipmer.kmer_analysis import (
    BloomFilter,
    count_kmers_filtered,
)


class TestBloomFilter:
    def test_no_false_negatives(self):
        rng = np.random.default_rng(0)
        fps = rng.integers(0, 2**63, size=500, dtype=np.uint64)
        bloom = BloomFilter(n_bits=500 * 12)
        bloom.add(fps)
        for fp in fps[:100]:
            assert int(fp) in bloom

    def test_low_false_positive_rate(self):
        rng = np.random.default_rng(1)
        inserted = rng.integers(0, 2**62, size=1000, dtype=np.uint64)
        probes = rng.integers(2**62, 2**63, size=1000, dtype=np.uint64)
        bloom = BloomFilter(n_bits=1000 * 12)
        bloom.add(inserted)
        fp_rate = sum(int(p) in bloom for p in probes) / len(probes)
        assert fp_rate < 0.05

    def test_detects_repeats_across_batches(self):
        bloom = BloomFilter(n_bits=4096)
        a = np.array([10, 20, 30], dtype=np.uint64)
        assert not bloom.add(a).any()
        assert bloom.add(a).all()

    def test_detects_repeats_within_batch(self):
        bloom = BloomFilter(n_bits=4096)
        fps = np.array([7, 8, 7, 7, 9], dtype=np.uint64)
        seen = bloom.add(fps)
        np.testing.assert_array_equal(seen, [False, False, True, True, False])

    def test_fill_fraction(self):
        bloom = BloomFilter(n_bits=64 * 8, n_hashes=2)
        assert bloom.fill_fraction == 0.0
        bloom.add(np.array([1, 2, 3], dtype=np.uint64))
        assert 0 < bloom.fill_fraction < 0.2

    def test_rejects_bad_args(self):
        with pytest.raises(KmerError):
            BloomFilter(0)
        with pytest.raises(KmerError):
            BloomFilter(64, n_hashes=0)

    @settings(max_examples=20)
    @given(st.lists(st.integers(0, 2**63), min_size=1, max_size=100))
    def test_property_membership_after_insert(self, values):
        bloom = BloomFilter(n_bits=max(256, len(values) * 16))
        bloom.add(np.array(values, dtype=np.uint64))
        assert all(v in bloom for v in values)
        # double hashing in Python ints, wrapped at 2^64 like the uint64s
        pos = bloom._bit_positions(np.array(values, dtype=np.uint64))
        assert pos.dtype == np.uint64
        assert pos.tolist() == [
            [((v & 0xFFFFFFFF) + i * ((v >> 32) | 1)) % (1 << 64)
             % bloom.n_bits for i in range(bloom.n_hashes)] for v in values]


class TestCountKmersFiltered:
    def _reads(self, genome, n, length, rng, profile=PERFECT_READS):
        return ReadSet([
            sequence_read(genome, int(rng.integers(0, len(genome) - length + 1)),
                          length, rng, profile, name=f"r{i}")
            for i in range(n)
        ])

    def test_solid_kmers_cover_genome(self):
        rng = np.random.default_rng(0)
        genome = simulate_genome(600, rng)
        reads = self._reads(genome, 60, 90, rng)
        spectrum = count_kmers_filtered(reads, 21)
        # at 9x coverage nearly every genomic k-mer occurs >= 2 times
        assert len(spectrum) > 0.9 * (600 - 21 + 1)
        assert spectrum.error_fraction < 0.1

    def test_singletons_dropped(self):
        # two unrelated aperiodic reads: every canonical k-mer is a singleton
        reads = ReadSet([Read.from_strings("a", "ACGGATTACACTGAG"),
                         Read.from_strings("b", "TGCATCCAAGGTCTT")])
        spectrum = count_kmers_filtered(reads, 11)
        assert len(spectrum) == 0
        assert spectrum.singletons_dropped == spectrum.total_kmers > 0

    def test_repeated_read_is_solid(self):
        reads = ReadSet([Read.from_strings("a", "ACGGATTACACTGAG"),
                         Read.from_strings("b", "ACGGATTACACTGAG")])
        spectrum = count_kmers_filtered(reads, 11)
        assert len(spectrum) == 15 - 11 + 1  # aperiodic: all 11-mers distinct

    def test_canonical_merging(self):
        """A read and its reverse complement share every canonical k-mer."""
        fwd = "ACGGATTACAGGT"
        rc = "ACCTGTAATCCGT"
        reads = ReadSet([Read.from_strings("f", fwd), Read.from_strings("r", rc)])
        spectrum = count_kmers_filtered(reads, 9)
        # each genomic k-mer observed twice (once per strand) -> solid
        assert len(spectrum) == len(fwd) - 9 + 1

    def test_min_count_threshold(self):
        reads = ReadSet([Read.from_strings(f"r{i}", "ACGGATTACACT")
                         for i in range(2)])
        assert len(count_kmers_filtered(reads, 8, min_count=3)) == 0
        assert len(count_kmers_filtered(reads, 8, min_count=2)) == 5

    def test_error_kmers_filtered(self):
        """Sequencing errors produce singletons that the filter removes."""
        rng = np.random.default_rng(3)
        genome = simulate_genome(500, rng)
        from repro.genomics.simulate import ErrorProfile

        reads = self._reads(genome, 50, 80, rng,
                            ErrorProfile(error_rate=0.01))
        spectrum = count_kmers_filtered(reads, 21)
        assert spectrum.singletons_dropped > 0
        # solid count stays near the genomic k-mer count despite errors
        assert len(spectrum) < 1.2 * (500 - 21 + 1)

    def test_reads_shorter_than_k_ignored(self):
        reads = ReadSet([Read.from_strings("s", "ACGT")])
        spectrum = count_kmers_filtered(reads, 21)
        assert spectrum.total_kmers == 0

    def test_rejects_bad_k(self):
        with pytest.raises(KmerError):
            count_kmers_filtered(ReadSet(), 0)

    def test_min_count_one_keeps_singletons(self):
        """Regression: the Bloom prepass must not impose a floor of 2.

        With ``min_count=1`` every scanned k-mer — singletons included —
        must be counted; previously the prepass silently behaved like
        ``min_count=2``.
        """
        reads = ReadSet([Read.from_strings("a", "ACGGATTACACTGAG"),
                         Read.from_strings("b", "TGCATCCAAGGTCTT")])
        spectrum = count_kmers_filtered(reads, 11, min_count=1)
        assert len(spectrum) == spectrum.total_kmers == 2 * (15 - 11 + 1)
        assert all(c == 1 for c in spectrum.counts.values())
        assert spectrum.singletons_dropped == 0
        assert spectrum.threshold_rejected == 0
        assert spectrum.error_fraction == 0.0

    def test_min_count_one_matches_two_on_repeats(self):
        """min_count=1 must agree with min_count=2 on non-singletons."""
        reads = ReadSet([Read.from_strings(f"r{i}", "ACGGATTACACT")
                         for i in range(2)])
        s1 = count_kmers_filtered(reads, 8, min_count=1)
        s2 = count_kmers_filtered(reads, 8, min_count=2)
        assert s1.counts == s2.counts

    def test_threshold_rejected_tracked_separately(self):
        """Regression: a doubleton rejected by min_count=3 is not an
        'error' — it must land in threshold_rejected, not
        singletons_dropped, so error_fraction stays honest."""
        reads = ReadSet([Read.from_strings("a", "ACGGATTACACT"),
                         Read.from_strings("b", "ACGGATTACACT"),
                         Read.from_strings("c", "TGCATCCAAGGT")])
        spectrum = count_kmers_filtered(reads, 12, min_count=3)
        assert len(spectrum) == 0
        # a+b: one canonical 12-mer seen twice; c: one singleton
        assert spectrum.threshold_rejected == 2
        assert spectrum.singletons_dropped == 1
        assert spectrum.error_fraction == pytest.approx(1 / 3)

    def test_min_count_two_semantics_unchanged(self):
        """The default path still drops exactly the singletons."""
        reads = ReadSet([Read.from_strings("a", "ACGGATTACACT"),
                         Read.from_strings("b", "ACGGATTACACT"),
                         Read.from_strings("c", "TGCATCCAAGGT")])
        spectrum = count_kmers_filtered(reads, 12, min_count=2)
        assert len(spectrum) == 1
        assert spectrum.singletons_dropped == 1
        assert spectrum.threshold_rejected == 0
