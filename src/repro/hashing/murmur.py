"""MurmurHash2 / MurmurHashAligned2 (Austin Appleby, public domain).

The local-assembly kernel hashes each k-mer with ``MurmurHashAligned2``
[20]. The aligned variant in SMHasher only changes *how* unaligned
buffers are read; for 4-byte-aligned buffers — the only case the GPU
kernel produces, since it owns its device allocations — its digest is
plain MurmurHash2's. We implement the 32-bit MurmurHash2 family
faithfully (same constants ``m = 0x5bd1e995``, ``r = 24``, same mix and
tail handling) in three forms:

* :func:`murmur2` — scalar reference, byte-for-byte identical to the C
  version for aligned input.
* :func:`murmur2_batch` — vectorized over a matrix of equal-length keys,
  used by the SIMT kernels to hash every pending k-mer of a batch in a
  handful of NumPy passes.
* :func:`murmur2_stream` — vectorized over equal-length *windows of one
  flat byte stream*, addressed by start offset. Digest-identical to
  gathering each window and calling :func:`murmur2_batch`, but the word
  loads gather one pre-mixed word at a time straight from the stream, so
  the ``(n, length)`` window matrix is never materialized — the form the
  batch preparer uses on its concatenated read streams.

All arithmetic is modulo 2**32 (uint32 wraparound), matching C.
"""

from __future__ import annotations

import numpy as np

#: MurmurHash2 multiplicative constant.
MURMUR_M = 0x5BD1E995

#: MurmurHash2 rotation constant.
MURMUR_R = 24

_U32 = 0xFFFFFFFF


def _mmix(h: int, k: int) -> tuple[int, int]:
    """One MurmurHash2 mix round (scalar)."""
    k = (k * MURMUR_M) & _U32
    k ^= k >> MURMUR_R
    k = (k * MURMUR_M) & _U32
    h = (h * MURMUR_M) & _U32
    h ^= k
    return h, k


def murmur2(data: bytes | np.ndarray, seed: int = 0) -> int:
    """32-bit MurmurHash2 of ``data`` (little-endian word reads, as on GPU)."""
    buf = bytes(np.asarray(data, dtype=np.uint8).tobytes()) if isinstance(data, np.ndarray) else bytes(data)
    n = len(buf)
    h = (seed ^ n) & _U32
    i = 0
    while n - i >= 4:
        k = int.from_bytes(buf[i : i + 4], "little")
        h, _ = _mmix(h, k)
        i += 4
    tail = n - i
    if tail == 3:
        h ^= buf[i + 2] << 16
    if tail >= 2:
        h ^= buf[i + 1] << 8
    if tail >= 1:
        h ^= buf[i]
        h = (h * MURMUR_M) & _U32
    h ^= h >> 13
    h = (h * MURMUR_M) & _U32
    h ^= h >> 15
    return h


def murmur2_words(stream: np.ndarray) -> np.ndarray:
    """Little-endian 4-byte word assembly over a whole byte stream.

    ``murmur2_words(s)[i]`` is the word MurmurHash2 would read at offset
    ``i`` — the length-independent half of :func:`murmur2_stream`, so a
    k-schedule can assemble the words once per stream and reuse them for
    every window length.
    """
    stream = np.ascontiguousarray(stream, dtype=np.uint8)
    if stream.size < 4:
        return np.empty(0, dtype=np.uint32)
    return (
        stream[: stream.size - 3].astype(np.uint32)
        | (stream[1: stream.size - 2].astype(np.uint32) << np.uint32(8))
        | (stream[2: stream.size - 1].astype(np.uint32) << np.uint32(16))
        | (stream[3:].astype(np.uint32) << np.uint32(24))
    )


def _mix_words(k: np.ndarray) -> np.ndarray:
    """MurmurHash2's word mix, in place: ``k *= m; k ^= k >> r; k *= m``."""
    m = np.uint32(MURMUR_M)
    with np.errstate(over="ignore"):
        k *= m
        k ^= k >> np.uint32(MURMUR_R)
        k *= m
    return k


def murmur2_mixed_words(stream: np.ndarray) -> np.ndarray:
    """:func:`murmur2_words` of ``stream`` with MurmurHash2's word mix
    applied. The mix depends only on the word, never on the running
    ``h``, so like the words it is length-independent: a k-schedule mixes
    a stream once and reuses it for every window length.
    """
    return _mix_words(murmur2_words(stream))


def murmur2_stream(stream: np.ndarray, starts: np.ndarray, length: int,
                   seed: int = 0, words: np.ndarray | None = None,
                   mixed: np.ndarray | None = None) -> np.ndarray:
    """MurmurHash2 of ``stream[s : s + length]`` for every ``s`` in ``starts``.

    Equivalent to ``murmur2_batch(stream[starts[:, None] + arange(length)],
    seed)`` — same word assembly, same mix order, same tail handling —
    without building the window matrix: little-endian words are
    pre-assembled and mixed once over the whole stream, then each of the
    ``length // 4`` word rounds folds one gather into ``h``. ``words``
    accepts a precomputed :func:`murmur2_words` of the same stream,
    ``mixed`` a precomputed :func:`murmur2_mixed_words`.
    """
    stream = np.ascontiguousarray(stream, dtype=np.uint8)
    starts = np.asarray(starts, dtype=np.int64)
    if length <= 0:
        raise ValueError(f"window length must be positive, got {length}")
    if starts.size and (int(starts.min()) < 0
                        or int(starts.max()) + length > stream.size):
        raise ValueError("window [start, start + length) out of stream bounds")
    m = np.uint32(MURMUR_M)
    h = np.full(starts.size, (seed ^ length) & _U32, dtype=np.uint32)
    with np.errstate(over="ignore"):
        nwords = length // 4
        if nwords and starts.size:
            if mixed is None:
                mixed = (_mix_words(words.copy()) if words is not None
                         else murmur2_mixed_words(stream))
            at = starts.copy()
            for _ in range(nwords):
                h *= m
                h ^= mixed[at]
                at += 4
        tail = length - nwords * 4
        i = nwords * 4
        if tail == 3:
            h ^= stream[starts + (i + 2)].astype(np.uint32) << np.uint32(16)
        if tail >= 2:
            h ^= stream[starts + (i + 1)].astype(np.uint32) << np.uint32(8)
        if tail >= 1:
            h ^= stream[starts + i].astype(np.uint32)
            h *= m
        h ^= h >> np.uint32(13)
        h *= m
        h ^= h >> np.uint32(15)
    return h


def murmur2_batch(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized MurmurHash2 over a ``(n, length)`` uint8 key matrix.

    Returns a ``uint32`` array of ``n`` digests, each identical to
    ``murmur2(keys[i], seed)``. The word mix is one pass over all words;
    only the two-op fold into ``h`` loops per word. There is no per-key
    Python loop.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint8)
    if keys.ndim != 2:
        raise ValueError(f"expected (n, length) key matrix, got shape {keys.shape}")
    n, length = keys.shape
    m = np.uint32(MURMUR_M)
    h = np.full(n, (seed ^ length) & _U32, dtype=np.uint32)
    with np.errstate(over="ignore"):
        nwords = length // 4
        if nwords:
            # little-endian word assembly is a reinterpretation of the
            # key bytes, and the word mix does not depend on ``h``: it
            # runs once over the whole (n, nwords) matrix
            k = np.ascontiguousarray(keys[:, : nwords * 4]).view("<u4") * m
            k ^= k >> np.uint32(MURMUR_R)
            k *= m
            for j in range(nwords):
                h *= m
                h ^= k[:, j]
        tail = length - nwords * 4
        i = nwords * 4
        if tail == 3:
            h ^= keys[:, i + 2].astype(np.uint32) << np.uint32(16)
        if tail >= 2:
            h ^= keys[:, i + 1].astype(np.uint32) << np.uint32(8)
        if tail >= 1:
            h ^= keys[:, i].astype(np.uint32)
            h *= m
        h ^= h >> np.uint32(13)
        h *= m
        h ^= h >> np.uint32(15)
    return h
