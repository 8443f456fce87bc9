"""K-mer analysis: counting, Bloom prefiltering, error filtering.

The first stage of the MetaHipMer pipeline (Figure 2): count the
(canonical) k-mers of all input reads and drop those that occur only
once — a read error produces up to k novel k-mers, each almost surely
unique, so singleton k-mers are overwhelmingly sequencing errors.

MetaHipMer does this at scale with a distributed Bloom-filter prepass so
that singleton k-mers (the majority!) never enter the count table. The
same two-pass structure is implemented here: pass 1 inserts every k-mer
into a Bloom filter and records those *already present* as candidates;
pass 2 counts only the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import KmerError
from repro.genomics.kmer import kmer_fingerprints
from repro.genomics.dna import complement
from repro.genomics.reads import ReadSet

#: Default minimum multiplicity for a k-mer to be considered error-free.
DEFAULT_MIN_COUNT = 2


class BloomFilter:
    """A vectorized Bloom filter over 64-bit k-mer fingerprints.

    Uses ``n_hashes`` derived probes per item (double hashing from the
    fingerprint's two halves, the standard Kirsch–Mitzenmacher scheme).

    Args:
        n_bits: filter size in bits (rounded up to a multiple of 64).
        n_hashes: probes per item.
    """

    def __init__(self, n_bits: int, n_hashes: int = 4) -> None:
        if n_bits <= 0 or n_hashes <= 0:
            raise KmerError("BloomFilter needs positive n_bits and n_hashes")
        self.n_bits = int(n_bits)
        self.n_hashes = int(n_hashes)
        self._words = np.zeros((self.n_bits + 63) // 64, dtype=np.uint64)

    def _bit_positions(self, fps: np.ndarray) -> np.ndarray:
        """(n, n_hashes) bit indices for each fingerprint."""
        fps = np.asarray(fps, dtype=np.uint64)
        h1 = fps & np.uint64(0xFFFFFFFF)
        h2 = (fps >> np.uint64(32)) | np.uint64(1)  # odd => full-period
        i = np.arange(self.n_hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(self.n_bits)

    def add(self, fps: np.ndarray) -> np.ndarray:
        """Insert fingerprints; returns which were (probably) seen before.

        "Seen before" covers both items already in the filter *and*
        repeats within this batch (a non-first occurrence counts as seen —
        the whole batch is inserted as one vectorized operation, so the
        bit array alone cannot distinguish intra-batch repeats).
        """
        fps = np.asarray(fps, dtype=np.uint64)
        pos = self._bit_positions(fps)
        word, bit = pos >> np.uint64(6), pos & np.uint64(63)
        present = np.ones(pos.shape[0], dtype=bool)
        for j in range(self.n_hashes):
            w = word[:, j].astype(np.int64)
            mask = np.uint64(1) << bit[:, j]
            present &= (self._words[w] & mask) != 0
        # intra-batch repeats: every occurrence after the first
        order = np.argsort(fps, kind="stable")
        dup_sorted = np.zeros(fps.size, dtype=bool)
        dup_sorted[1:] = fps[order][1:] == fps[order][:-1]
        dup = np.empty(fps.size, dtype=bool)
        dup[order] = dup_sorted
        present |= dup
        for j in range(self.n_hashes):
            w = word[:, j].astype(np.int64)
            np.bitwise_or.at(self._words, w, np.uint64(1) << bit[:, j])
        return present

    def __contains__(self, fp: int) -> bool:
        pos = self._bit_positions(np.array([fp], dtype=np.uint64))
        word, bit = pos >> np.uint64(6), pos & np.uint64(63)
        for j in range(self.n_hashes):
            if not (self._words[int(word[0, j])] & (np.uint64(1) << bit[0, j])):
                return False
        return True

    @property
    def fill_fraction(self) -> float:
        """Fraction of bits set (≫0.5 means the filter is overloaded)."""
        return int(np.unpackbits(self._words.view(np.uint8)).sum()) / self.n_bits


def _canonical_fingerprints(reads: ReadSet, k: int) -> np.ndarray:
    """Canonical (strand-independent) fingerprints of every k-mer of every read.

    The canonical fingerprint is ``min(fp(kmer), fp(revcomp(kmer)))`` —
    cheaper than string comparison and equally strand-symmetric.
    """
    fwd_parts: list[np.ndarray] = []
    rc_parts: list[np.ndarray] = []
    for r in reads:
        if len(r) < k:
            continue
        fwd_parts.append(kmer_fingerprints(r.codes, k))
        rc = complement(r.codes)[::-1]
        rc_parts.append(kmer_fingerprints(np.ascontiguousarray(rc), k)[::-1])
    if not fwd_parts:
        return np.empty(0, dtype=np.uint64)
    fwd = np.concatenate(fwd_parts)
    rc = np.concatenate(rc_parts)
    return np.minimum(fwd, rc)


@dataclass
class KmerSpectrum:
    """The outcome of k-mer analysis.

    Attributes:
        k: k-mer size.
        counts: canonical fingerprint -> multiplicity (solid k-mers only).
        total_kmers: k-mers scanned (including dropped singletons).
        singletons_dropped: occurrences of *true* singletons (multiplicity
            exactly 1) excluded by the error filter — the sequencing-error
            signal. Zero when ``min_count <= 1`` (nothing is dropped).
        threshold_rejected: occurrences of repeated k-mers (multiplicity
            >= 2) that still fell below ``min_count``. Kept separate from
            the singletons so a stricter threshold does not masquerade as
            a higher error rate.
    """

    k: int
    counts: dict[int, int] = field(default_factory=dict)
    total_kmers: int = 0
    singletons_dropped: int = 0
    threshold_rejected: int = 0

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def error_fraction(self) -> float:
        """Fraction of scanned k-mers attributed to sequencing errors.

        Only true singletons count as errors; repeated k-mers rejected by
        a ``min_count > 2`` threshold are tracked in
        :attr:`threshold_rejected` instead.
        """
        return self.singletons_dropped / self.total_kmers if self.total_kmers else 0.0


def count_kmers_filtered(
    reads: ReadSet,
    k: int,
    min_count: int = DEFAULT_MIN_COUNT,
    bloom_bits_per_kmer: int = 10,
) -> KmerSpectrum:
    """Two-pass Bloom-prefiltered canonical k-mer counting.

    Pass 1 streams every k-mer through a Bloom filter; only k-mers seen at
    least twice (i.e. already present at insert time) become count-table
    candidates — singletons never allocate memory, exactly the MetaHipMer
    trick. Pass 2 counts candidates exactly and applies ``min_count``.
    With ``min_count <= 1`` the prepass is bypassed (its whole point is
    withholding singletons, which the caller wants kept) and every k-mer
    is counted exactly.

    Args:
        reads: input reads.
        k: k-mer size.
        min_count: multiplicity threshold for a "solid" k-mer.
        bloom_bits_per_kmer: Bloom sizing (10 bits/k-mer ≈ 1 % FP rate).
    """
    if k <= 0:
        raise KmerError(f"k must be positive, got {k}")
    fps = _canonical_fingerprints(reads, k)
    spectrum = KmerSpectrum(k=k, total_kmers=int(fps.size))
    if fps.size == 0:
        return spectrum
    if min_count <= 1:
        # The prepass only promotes k-mers seen >= 2 times, so with
        # min_count == 1 it would silently drop every singleton the
        # caller asked to keep — count everything exactly instead.
        uniq, cnt = np.unique(fps, return_counts=True)
    else:
        bloom = BloomFilter(max(64, bloom_bits_per_kmer * fps.size))
        repeated = bloom.add(fps)
        candidates = fps[repeated]
        # Exact counts for candidates only (true multiplicity, not Bloom's
        # guess)
        cand_set = np.unique(candidates)
        mask = np.isin(fps, cand_set)
        uniq, cnt = np.unique(fps[mask], return_counts=True)
    solid = cnt >= min_count
    spectrum.counts = dict(zip(uniq[solid].tolist(), cnt[solid].tolist()))
    below = ~solid
    # Non-candidate occurrences never reached the count table; the Bloom
    # prepass only withholds k-mers seen once, so they are all singletons.
    # (A Bloom false positive makes a singleton a candidate — it then
    # shows up here with cnt == 1 and is classified identically.)
    uncounted = spectrum.total_kmers - int(cnt.sum())
    spectrum.singletons_dropped = uncounted + int(cnt[below & (cnt == 1)].sum())
    spectrum.threshold_rejected = int(cnt[below & (cnt >= 2)].sum())
    return spectrum
