"""Tests for the MurmurHash2 implementation.

Reference digests were computed from Austin Appleby's C MurmurHash2
(SMHasher) semantics: h = seed ^ len; per-4-byte little-endian mix with
m=0x5bd1e995, r=24; tail bytes; final avalanche.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import murmur


def _reference_murmur2(data: bytes, seed: int = 0) -> int:
    """Independent straight-line transcription of the C code."""
    m, r = 0x5BD1E995, 24
    mask = 0xFFFFFFFF
    n = len(data)
    h = (seed ^ n) & mask
    i = 0
    while n - i >= 4:
        k = data[i] | data[i + 1] << 8 | data[i + 2] << 16 | data[i + 3] << 24
        k = (k * m) & mask
        k ^= k >> r
        k = (k * m) & mask
        h = (h * m) & mask
        h ^= k
        i += 4
    rem = n - i
    if rem == 3:
        h ^= data[i + 2] << 16
    if rem >= 2:
        h ^= data[i + 1] << 8
    if rem >= 1:
        h ^= data[i]
        h = (h * m) & mask
    h ^= h >> 13
    h = (h * m) & mask
    h ^= h >> 15
    return h


class TestScalar:
    def test_empty(self):
        assert murmur.murmur2(b"") == _reference_murmur2(b"")

    def test_known_lengths(self):
        for n in range(0, 20):
            data = bytes(range(n))
            assert murmur.murmur2(data) == _reference_murmur2(data), n

    def test_seed_changes_digest(self):
        assert murmur.murmur2(b"ACGTACGT", seed=1) != murmur.murmur2(b"ACGTACGT", seed=2)

    def test_accepts_uint8_array(self):
        arr = np.array([0, 1, 2, 3], dtype=np.uint8)
        assert murmur.murmur2(arr) == murmur.murmur2(bytes([0, 1, 2, 3]))

    @given(st.binary(min_size=0, max_size=128), st.integers(0, 2**32 - 1))
    def test_matches_reference(self, data, seed):
        assert murmur.murmur2(data, seed) == _reference_murmur2(data, seed)

    def test_range_is_uint32(self):
        for n in range(40):
            assert 0 <= murmur.murmur2(bytes(n)) <= 0xFFFFFFFF


class TestBatch:
    def test_matches_scalar_all_kmer_sizes(self):
        rng = np.random.default_rng(0)
        for k in (21, 33, 55, 77):
            keys = rng.integers(0, 4, size=(50, k), dtype=np.uint8)
            digests = murmur.murmur2_batch(keys, seed=17)
            for i in range(keys.shape[0]):
                assert int(digests[i]) == murmur.murmur2(keys[i].tobytes(), seed=17)

    def test_empty_batch(self):
        out = murmur.murmur2_batch(np.empty((0, 21), dtype=np.uint8))
        assert out.shape == (0,)
        assert out.dtype == np.uint32

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            murmur.murmur2_batch(np.zeros(4, dtype=np.uint8))

    @settings(max_examples=20)
    @given(st.integers(1, 16), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_batch_property(self, n, length, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 256, size=(n, length), dtype=np.uint8)
        digests = murmur.murmur2_batch(keys, seed=seed)
        assert int(digests[0]) == murmur.murmur2(keys[0].tobytes(), seed=seed)
        assert int(digests[-1]) == murmur.murmur2(keys[-1].tobytes(), seed=seed)

    def test_distribution_roughly_uniform(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 4, size=(20000, 21), dtype=np.uint8)
        digests = murmur.murmur2_batch(keys)
        buckets = np.bincount(digests % np.uint32(16), minlength=16)
        assert buckets.min() > 20000 / 16 * 0.8
        assert buckets.max() < 20000 / 16 * 1.2


class TestStream:
    """murmur2_stream must equal murmur2_batch over gathered windows —
    the identity the batch preparer's per-k hashing relies on."""

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 255))
    def test_matches_batch_on_all_windows(self, seed, length, hseed):
        rng = np.random.default_rng(seed)
        stream = rng.integers(0, 256, size=length + 60, dtype=np.uint8)
        starts = np.arange(stream.size - length + 1, dtype=np.int64)
        windows = stream[starts[:, None] + np.arange(length)]
        np.testing.assert_array_equal(
            murmur.murmur2_stream(stream, starts, length, seed=hseed),
            murmur.murmur2_batch(windows, seed=hseed))

    def test_precomputed_words_identical(self):
        rng = np.random.default_rng(2)
        stream = rng.integers(0, 256, size=300, dtype=np.uint8)
        starts = np.arange(0, 260, 7, dtype=np.int64)
        words = murmur.murmur2_words(stream)
        np.testing.assert_array_equal(
            murmur.murmur2_stream(stream, starts, 33, words=words),
            murmur.murmur2_stream(stream, starts, 33))

    @pytest.mark.parametrize("length", [21, 22, 33, 55, 77, 3, 4])
    def test_precomputed_mixed_words_identical(self, length):
        """Tails of 1, 2, 1, 3, 1 bytes, no whole word, no tail: the
        cached word mix folds to the digests of the plain call."""
        rng = np.random.default_rng(length)
        stream = rng.integers(0, 4, size=400, dtype=np.uint8)
        starts = np.arange(0, 400 - length, 3, dtype=np.int64)
        mixed = murmur.murmur2_mixed_words(stream)
        assert mixed.dtype == np.uint32 and mixed.size == stream.size - 3
        want = murmur.murmur2_batch(
            stream[starts[:, None] + np.arange(length)], seed=7)
        for kwargs in (dict(mixed=mixed),
                       dict(words=murmur.murmur2_words(stream)), {}):
            np.testing.assert_array_equal(
                murmur.murmur2_stream(stream, starts, length, seed=7,
                                      **kwargs), want)

    def test_precomputed_words_are_not_mutated(self):
        stream = np.arange(40, dtype=np.uint8)
        words = murmur.murmur2_words(stream)
        kept = words.copy()
        murmur.murmur2_stream(stream, np.array([0, 5]), 21, words=words)
        np.testing.assert_array_equal(words, kept)

    def test_words_are_little_endian(self):
        stream = np.array([1, 2, 3, 4, 5], dtype=np.uint8)
        words = murmur.murmur2_words(stream)
        assert words.dtype == np.uint32
        assert words.tolist() == [0x04030201, 0x05040302]
        assert murmur.murmur2_words(stream[:3]).size == 0

    def test_empty_starts(self):
        out = murmur.murmur2_stream(np.zeros(10, dtype=np.uint8),
                                    np.empty(0, dtype=np.int64), 4)
        assert out.shape == (0,) and out.dtype == np.uint32

    def test_out_of_bounds_window_rejected(self):
        stream = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValueError):
            murmur.murmur2_stream(stream, np.array([8]), 4)
        with pytest.raises(ValueError):
            murmur.murmur2_stream(stream, np.array([-1]), 4)
        with pytest.raises(ValueError):
            murmur.murmur2_stream(stream, np.array([0]), 0)
