"""Algorithm 1's work count and table sizing.

For every read assigned to a contig, every k-mer that has a following
base contributes one insertion: key = the k-mer, vote = the next base
with its quality score (:func:`repro.core.reference.reference_table`).
A read of length L therefore contributes ``max(0, L - k)`` insertions —
which is exactly how the paper's Table II "total hash insertions" column
relates to its read counts and lengths.
"""

from __future__ import annotations

import math

from repro.genomics.reads import ReadSet

#: Default table occupancy target; the GPU pre-processing phase reserves
#: capacity for the estimated insertion upper bound at this load factor.
DEFAULT_LOAD_FACTOR = 0.66


def insertions_for(reads: ReadSet, k: int) -> int:
    """Number of hash insertions Algorithm 1 performs for ``reads``."""
    return sum(max(0, len(r) - k) for r in reads)


def estimate_table_slots(
    n_insertions: int, load_factor: float = DEFAULT_LOAD_FACTOR
) -> int:
    """Upper-bound slot count for a table receiving ``n_insertions``.

    This mirrors the "Estimate Hash Table Sizes" box of Figure 3: the GPU
    cannot grow tables mid-kernel, so capacity is reserved for the worst
    case (every insertion a distinct key) divided by the target load
    factor, with a small floor so tiny contigs still get a usable table.
    """
    if n_insertions < 0:
        raise ValueError(f"n_insertions must be >= 0, got {n_insertions}")
    if not 0.0 < load_factor <= 1.0:
        raise ValueError(f"load_factor must be in (0, 1], got {load_factor}")
    return max(16, math.ceil(n_insertions / load_factor))

