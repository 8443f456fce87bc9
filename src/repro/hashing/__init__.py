"""Hashing substrate: MurmurHash2 (MurmurHashAligned2's digest on the
kernel's aligned keys) and its integer-operation cost model."""

from repro.hashing.murmur import (
    MURMUR_M,
    MURMUR_R,
    murmur2,
    murmur2_batch,
)
from repro.hashing.opcount import (
    CLEANUP_INTOPS,
    INIT_INTOPS,
    KEY_HANDLING_INTOPS_PER_4_BASES,
    MIX_INTOPS_PER_WORD,
    hash_intops,
    hash_intops_breakdown,
)

__all__ = [
    "MURMUR_M",
    "MURMUR_R",
    "murmur2",
    "murmur2_batch",
    "INIT_INTOPS",
    "CLEANUP_INTOPS",
    "MIX_INTOPS_PER_WORD",
    "KEY_HANDLING_INTOPS_PER_4_BASES",
    "hash_intops",
    "hash_intops_breakdown",
]
