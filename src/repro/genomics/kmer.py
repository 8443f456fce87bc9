"""K-mer extraction, canonicalization, packing, and fingerprints.

A *k-mer* is a length-``k`` substring of a DNA sequence. The de Bruijn
graph underlying local assembly uses k-mers as edges; the k-mer tables
(:mod:`repro.core.reference`, :mod:`repro.kernels.vectortable`) use
them as keys.

Two machine representations are provided:

* **packed** — the exact 2-bit packing of a k-mer into an arbitrary-size
  Python integer (usable for any k, reversible),
* **fingerprint** — a 64-bit multiplicative rolling fingerprint computed
  vectorized over all k-mers of a sequence. Fingerprints are what the
  vectorized SIMT kernels store in hash-table slots as key identity
  (full-key comparison is still charged in the cost model; a 64-bit
  fingerprint collision over the ≤10M keys of a dataset is vanishingly
  unlikely, and the chance is tested empirically in the test suite).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

import numpy as np

from repro.errors import KmerError
from repro.genomics.dna import decode, encode, reverse_complement

#: Multiplier for the 64-bit polynomial fingerprint (odd => invertible mod 2^64).
FINGERPRINT_BASE = np.uint64(0x9E3779B97F4A7C15)

#: Offset added to each 2-bit code so the all-``A`` k-mer does not map to 0.
_CODE_OFFSET = np.uint64(0x100000001B3)

#: Multiplicative inverse of :data:`FINGERPRINT_BASE` mod 2^64 (the base
#: is odd, hence invertible) — what makes the O(n) rolling evaluation in
#: :func:`rolling_fingerprints` possible.
_BASE_INV = np.uint64(pow(0x9E3779B97F4A7C15, -1, 1 << 64))


def _check_k(n: int, k: int) -> None:
    if k <= 0:
        raise KmerError(f"k must be positive, got {k}")
    if k > n:
        raise KmerError(f"k={k} exceeds sequence length {n}")


def iter_kmers(seq: str | np.ndarray, k: int) -> Iterator[str]:
    """Yield every k-mer of ``seq`` as a string, left to right."""
    codes = encode(seq)
    _check_k(len(codes), k)
    for i in range(len(codes) - k + 1):
        yield decode(codes[i : i + k])


def kmers_of(seq: str | np.ndarray, k: int) -> list[str]:
    """All k-mers of ``seq`` as a list of strings."""
    return list(iter_kmers(seq, k))


def kmer_matrix(codes: np.ndarray, k: int) -> np.ndarray:
    """Zero-copy ``(n-k+1, k)`` view of all k-mers of an encoded sequence.

    Uses a strided sliding window so no bases are copied — the guides'
    "views, not copies" rule applied to the innermost data structure.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    _check_k(len(codes), k)
    return np.lib.stride_tricks.sliding_window_view(codes, k)


def pack_kmer(kmer: str | np.ndarray, k: int | None = None) -> int:
    """Pack a k-mer into an integer, 2 bits per base, MSB-first.

    Works for any k (Python integers are unbounded). The packing is
    reversible via :func:`unpack_kmer`.
    """
    codes = encode(kmer)
    if k is not None and len(codes) != k:
        raise KmerError(f"k-mer length {len(codes)} != k={k}")
    value = 0
    for c in codes.tolist():
        value = (value << 2) | c
    return value


def unpack_kmer(value: int, k: int) -> str:
    """Inverse of :func:`pack_kmer`."""
    if value < 0:
        raise KmerError("packed k-mer must be non-negative")
    codes = np.empty(k, dtype=np.uint8)
    for i in range(k - 1, -1, -1):
        codes[i] = value & 3
        value >>= 2
    if value:
        raise KmerError(f"packed value has more than {k} bases")
    return decode(codes)


def canonical_kmer(kmer: str) -> str:
    """The lexicographically smaller of a k-mer and its reverse complement."""
    rc = reverse_complement(kmer)
    assert isinstance(rc, str)
    return kmer if kmer <= rc else rc


def count_kmers(seq: str | np.ndarray, k: int, canonical: bool = False) -> Counter:
    """Multiplicity of each k-mer of ``seq`` (optionally canonicalized)."""
    counts: Counter = Counter()
    for m in iter_kmers(seq, k):
        counts[canonical_kmer(m) if canonical else m] += 1
    return counts


def kmer_fingerprints(codes: np.ndarray, k: int) -> np.ndarray:
    """64-bit fingerprints of every k-mer of ``codes``, vectorized.

    ``fp(i) = sum_{j<k} (codes[i+j] + OFFSET) * BASE^(k-1-j)  (mod 2^64)``

    The computation is a windowed polynomial evaluation done with ``k``
    vectorized passes over the window matrix (``O(n*k)`` uint64 ops, no
    Python-level inner loop over k-mers).
    """
    return fingerprint_matrix(kmer_matrix(codes, k))


def fingerprint_matrix(windows: np.ndarray) -> np.ndarray:
    """Fingerprints of a ``(n, k)`` window matrix (same formula as
    :func:`kmer_fingerprints`, for callers that already hold windows)."""
    win = np.asarray(windows, dtype=np.uint64)
    if win.ndim != 2:
        raise KmerError(f"expected (n, k) window matrix, got shape {win.shape}")
    with np.errstate(over="ignore"):
        win = win + _CODE_OFFSET
        acc = np.zeros(win.shape[0], dtype=np.uint64)
        for j in range(win.shape[1]):
            acc = acc * FINGERPRINT_BASE + win[:, j]
    return acc


def shift_fingerprints(fps: np.ndarray, dropped: np.ndarray,
                       appended: np.ndarray, k: int) -> np.ndarray:
    """Advance k-window fingerprints by one base in O(n) total work.

    For a window fingerprint ``fp = sum_j (c_j + OFFSET) * BASE^(k-1-j)``
    sliding one base right (dropping ``dropped``, appending ``appended``):

        ``fp' = (fp - (dropped + OFFSET) * BASE^(k-1)) * BASE
                + (appended + OFFSET)     (mod 2^64)``

    — exact under wrapping uint64 arithmetic, so the result is
    bit-identical to re-evaluating :func:`fingerprint_matrix` on the
    shifted windows. The walk phase uses this to follow each warp's
    current k-mer without re-hashing k bases every step.
    """
    with np.errstate(over="ignore"):
        top = ((np.asarray(dropped).astype(np.uint64) + _CODE_OFFSET)
               * np.uint64(pow(0x9E3779B97F4A7C15, k - 1, 1 << 64)))
        return ((np.asarray(fps, dtype=np.uint64) - top) * FINGERPRINT_BASE
                + (np.asarray(appended).astype(np.uint64) + _CODE_OFFSET))


def fingerprint_prefix(codes: np.ndarray) -> np.ndarray:
    """The k-independent prefix-sum stream behind :func:`rolling_fingerprints`.

    ``prefix[i] = sum_{t<i} (codes[t] + OFFSET) * BASE^-t  (mod 2^64)`` —
    computable once per code stream and reusable for every k of a
    k-schedule (the batch preparer caches it on the flattened bin).
    """
    codes = np.asarray(codes)
    n = codes.size
    with np.errstate(over="ignore"):
        inv_pow = np.empty(n, dtype=np.uint64)
        if n:
            inv_pow[0] = 1
            inv_pow[1:] = _BASE_INV
            np.multiply.accumulate(inv_pow, out=inv_pow)
        terms = (codes.astype(np.uint64) + _CODE_OFFSET) * inv_pow
        prefix = np.empty(n + 1, dtype=np.uint64)
        prefix[0] = 0
        np.cumsum(terms, out=prefix[1:])
    return prefix


def rolling_fingerprints(codes: np.ndarray, k: int,
                         prefix: np.ndarray | None = None) -> np.ndarray:
    """Fingerprints of every k-window of ``codes`` in O(n) total work.

    Bit-identical to ``fingerprint_matrix(kmer_matrix(codes, k))`` but
    evaluated through wrapping prefix sums instead of ``k`` passes over a
    materialized window matrix: with ``Binv = BASE^-1 (mod 2^64)`` and
    ``S`` the cumulative sum of ``(codes[t] + OFFSET) * Binv^t``,

        ``fp(i) = (S[i+k] - S[i]) * BASE^(i+k-1)   (mod 2^64)``

    — every operation wraps mod 2^64, so the values match the windowed
    polynomial exactly. This is what the batch preparer runs over each
    flat read stream; callers that already hold window matrices (the walk
    phase's current k-mers) keep using :func:`fingerprint_matrix`.

    ``prefix`` accepts a precomputed :func:`fingerprint_prefix` of the
    same codes (k-independent, so reusable across a k-schedule).
    """
    codes = np.asarray(codes)
    n = codes.size
    _check_k(n, k)
    if prefix is None:
        prefix = fingerprint_prefix(codes)
    elif prefix.size != n + 1:
        raise KmerError(f"prefix size {prefix.size} does not match "
                        f"{n}-base code stream")
    with np.errstate(over="ignore"):
        m = n - k + 1
        scale = np.empty(m, dtype=np.uint64)
        scale[0] = np.uint64(pow(0x9E3779B97F4A7C15, k - 1, 1 << 64))
        scale[1:] = FINGERPRINT_BASE
        np.multiply.accumulate(scale, out=scale)
        return (prefix[k:] - prefix[:m]) * scale


def fingerprint_of(kmer: str) -> int:
    """Fingerprint of a single k-mer string (matches :func:`kmer_fingerprints`)."""
    codes = encode(kmer)
    return int(kmer_fingerprints(codes, len(codes))[0])
