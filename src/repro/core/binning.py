"""Contig binning and batch formation (the Figure 3 pre-processing phase).

The mer-walk has a non-deterministic amount of work per contig, and the
GPU runs many contigs per kernel launch (one per warp). If contigs with
wildly different work land in the same launch, warps that finish early
idle while stragglers run — the *warp stalling* the paper describes.
Binning groups contigs by assigned-read count (the dominant work
predictor) so each launch has similar per-warp work, and caps each
batch's aggregate hash-table memory so it fits the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.construct import DEFAULT_LOAD_FACTOR, estimate_table_slots, insertions_for
from repro.genomics.contig import Contig


@dataclass
class Bin:
    """One work bin: contig indices with similar read counts.

    Attributes:
        contig_indices: indices into the original contig list.
        min_depth / max_depth: read-count range of the bin.
        total_insertions: hash insertions the bin will perform for a given k.
        table_slots: per-contig reserved slot counts (same order as
            ``contig_indices``).
    """

    contig_indices: list[int] = field(default_factory=list)
    min_depth: int = 0
    max_depth: int = 0
    total_insertions: int = 0
    table_slots: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.contig_indices)


def bin_contigs(
    contigs: list[Contig],
    k: int,
    depth_ratio: float = 2.0,
    max_batch_insertions: int | None = None,
    load_factor: float = DEFAULT_LOAD_FACTOR,
) -> list[Bin]:
    """Group contigs into work-similar bins.

    Contigs are sorted by read count; a bin closes when the next contig's
    depth exceeds ``depth_ratio`` times the bin's minimum (work would no
    longer be similar) or when the bin's aggregate insertions would exceed
    ``max_batch_insertions`` (the device-memory cap of Figure 3).

    Returns bins in increasing-depth order; every input contig appears in
    exactly one bin. Contigs with zero eligible insertions still get a
    (minimal) table so the kernels need no special-casing.
    """
    if depth_ratio < 1.0:
        raise ValueError(f"depth_ratio must be >= 1, got {depth_ratio}")
    order = sorted(range(len(contigs)), key=lambda i: contigs[i].depth)
    bins: list[Bin] = []
    current: Bin | None = None
    for idx in order:
        c = contigs[idx]
        ins = insertions_for(c.reads, k)
        slots = estimate_table_slots(ins, load_factor)
        depth = c.depth
        close = (
            current is None
            or depth > max(1, current.min_depth) * depth_ratio
            or (
                max_batch_insertions is not None
                and current.total_insertions + ins > max_batch_insertions
                and len(current) > 0
            )
        )
        if close:
            current = Bin(min_depth=depth, max_depth=depth)
            bins.append(current)
        current.contig_indices.append(idx)
        current.max_depth = depth
        current.total_insertions += ins
        current.table_slots.append(slots)
    return bins


def narrow_bin(bin_: Bin, keep: list[bool], contigs: list[Contig],
               k: int) -> Bin:
    """``bin_`` restricted to the members ``keep`` marks, order preserved
    (``keep`` aligns with ``contig_indices`` and marks at least one)."""
    idx = [ci for ci, on in zip(bin_.contig_indices, keep) if on]
    depths = [contigs[ci].depth for ci in idx]
    return Bin(
        contig_indices=idx, min_depth=min(depths), max_depth=max(depths),
        total_insertions=sum(insertions_for(contigs[ci].reads, k)
                             for ci in idx),
        table_slots=[s for s, on in zip(bin_.table_slots, keep) if on])


def binning_imbalance(contigs: list[Contig], bins: list[Bin], k: int) -> float:
    """Mean (max/mean) work imbalance across bins; 1.0 is perfect.

    Used by the binning ablation bench: without binning the whole dataset
    is one bin and this ratio is large; with binning it approaches 1.
    """
    ratios = []
    for b in bins:
        work = [insertions_for(contigs[i].reads, k) for i in b.contig_indices]
        mean = sum(work) / len(work) if work else 0
        if mean > 0:
            ratios.append(max(work) / mean)
    return sum(ratios) / len(ratios) if ratios else 1.0
