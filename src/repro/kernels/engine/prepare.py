"""Batch preparation: flatten one bin's contigs + reads into launch arrays.

Preparation splits into two stages:

1. **Flatten** (k-independent): per (bin, end), concatenate every
   assigned read's codes and qualities — reverse-complemented for the
   left end — and record per-read warp assignments, lengths, offsets and
   the k-independent table-capacity upper bound. This is the expensive
   concatenation work.
2. **Finish** (per-k): window the flat code stream into k-mers, hash and
   fingerprint them a stretch of whole reads at a time, gather extension
   bases and quality flags, extract the per-contig seed k-mers, and size
   the tables.

A flatten lives for one :meth:`BatchPreparer.prepare` call. A settled
contig end leaves the k-schedule, so a later k's bins are narrower than
the bins flattened before it and a kept flatten is almost never asked
for again — while keeping one holds a whole end's read stream through
the next launch (DESIGN.md decisions 26 and 39).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.binning import Bin
from repro.core.construct import (
    DEFAULT_LOAD_FACTOR,
    estimate_table_slots,
)
from repro.errors import KernelError
from repro.genomics.contig import Contig, End
from repro.genomics.dna import reverse_complement
from repro.genomics.dna import complement
from repro.genomics.kmer import rolling_fingerprints
from repro.genomics.reads import DEFAULT_QUAL_THRESHOLD
from repro.hashing.murmur import murmur2_stream
from repro.kernels.vectortable import VOTE_STRETCH


def run_length_sorted(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(uniques, counts)`` of an already-sorted array.

    Equivalent to ``np.unique(values, return_counts=True)`` for sorted
    input but without the internal re-sort — a boundary diff over the
    run, which is what the lockstep phases call every probe iteration on
    their (warp-sorted) pending sets.
    """
    values = np.asarray(values)
    if values.size == 0:
        return values[:0], np.empty(0, dtype=np.int64)
    change = np.empty(values.size, dtype=bool)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    starts = np.nonzero(change)[0]
    counts = np.empty(starts.size, dtype=np.int64)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1] = values.size - starts[-1]
    return values[starts], counts


@dataclass
class Batch:
    """One bin's contigs prepared for one launch direction."""

    contig_ids: list[int]
    codes: np.ndarray
    quals: np.ndarray
    ins_warp: np.ndarray        # warp id per insertion, non-decreasing
    ins_home: np.ndarray        # murmur digest per insertion
    ins_fp: np.ndarray          # key fingerprint per insertion
    ins_ext: np.ndarray         # extension base code per insertion
    ins_hi: np.ndarray          # high-quality vote flag per insertion
    ins_end: np.ndarray         # insertions that end their reads, ascending
    seeds: np.ndarray           # (n_warps, k) seed k-mers
    seed_valid: np.ndarray      # warps whose contig admits a seed
    capacities: np.ndarray      # table slots per warp
    read_bytes_per_warp: np.ndarray

    @property
    def n_warps(self) -> int:
        return len(self.contig_ids)

    def without_reads(self) -> "Batch":
        """This batch with its read streams reduced to their sizes
        (zero-stride views): once prepared, no phase reads their bases,
        and a launch's bookkeeping only their length."""
        return replace(self, **{
            name: np.broadcast_to(np.uint8(0), getattr(self, name).size)
            for name in ("codes", "quals")})

    def walk_only(self) -> "Batch":
        """This batch without its insertions: all a walk, and a launch's
        bookkeeping, still read once construct has run."""
        return replace(self, **{
            name: getattr(self, name)[:0].copy()
            for name in ("ins_warp", "ins_home", "ins_fp", "ins_ext",
                         "ins_hi", "ins_end")})


def subset_batch(batch: Batch, warp_ids, capacities=None) -> Batch:
    """A new :class:`Batch` holding only ``warp_ids`` of ``batch``.

    Used by the grow-retry overflow policy to re-run just the warps whose
    tables overflowed. Warp ids must be unique and in range — duplicates
    or out-of-range ids raise :class:`KernelError` instead of silently
    producing a batch with misaligned capacities. Ids may arrive in any
    order: warps are renumbered densely in ascending order of the
    original ids (which keeps every per-insertion array sorted by warp
    as the phases require), and ``capacities`` — aligned with
    ``warp_ids`` *as given* — is reordered along with them. The flat
    code/quality streams are shared, not copied; they are read-only to
    the phases.
    """
    ids = np.asarray(list(warp_ids), dtype=np.int64)
    if ids.size == 0:
        raise KernelError("subset_batch needs at least one warp id")
    if ids.min() < 0 or ids.max() >= batch.n_warps:
        bad = ids[(ids < 0) | (ids >= batch.n_warps)]
        raise KernelError(f"warp ids {bad.tolist()!r} out of range for "
                          f"{batch.n_warps}-warp batch")
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    dup = sorted_ids[1:] == sorted_ids[:-1]
    if dup.any():
        raise KernelError(
            f"duplicate warp ids {np.unique(sorted_ids[1:][dup]).tolist()!r} "
            f"passed to subset_batch")
    if capacities is None:
        caps = batch.capacities[sorted_ids].copy()
    else:
        caps = np.asarray(capacities, dtype=np.int64)
        if caps.shape != ids.shape:
            raise KernelError("capacities must align with warp_ids")
        caps = caps[order].copy()
    ids = sorted_ids
    keep = np.isin(batch.ins_warp, ids)
    remap = np.zeros(batch.n_warps, dtype=np.int32)
    remap[ids] = np.arange(ids.size)
    return Batch(
        contig_ids=[batch.contig_ids[int(w)] for w in ids],
        codes=batch.codes, quals=batch.quals,
        ins_warp=remap[batch.ins_warp[keep]],
        ins_home=batch.ins_home[keep], ins_fp=batch.ins_fp[keep],
        ins_ext=batch.ins_ext[keep], ins_hi=batch.ins_hi[keep],
        ins_end=(np.cumsum(keep) - 1)[batch.ins_end[keep[batch.ins_end]]],
        seeds=batch.seeds[ids].copy(), seed_valid=batch.seed_valid[ids].copy(),
        capacities=caps,
        read_bytes_per_warp=batch.read_bytes_per_warp[ids].copy(),
    )


def concat_batches(batches: list[Batch]) -> tuple[Batch, np.ndarray]:
    """Fuse prepared batches into one multi-tenant launch batch.

    Returns ``(fused, warp_base)`` where ``warp_base`` has length
    ``len(batches) + 1`` and ``warp_base[i]`` is the first fused warp id
    of ``batches[i]`` (the last entry is the fused warp count). Member
    warps keep their relative order, so every per-insertion array stays
    warp-sorted as the phases require, and each member owns a contiguous
    warp range — and therefore a contiguous slot range in the fused
    :class:`~repro.kernels.vectortable.WarpHashTables` — which is what
    makes per-job attribution a rebase (subtract the member's warp/slot
    base) rather than a scatter.

    The flat code/quality streams are *not* concatenated: construct and
    walk never read them (only prepare does), so the fused batch carries
    empty streams and per-job launch contexts (read bytes, cold
    footprints) are computed from the member batches. ``contig_ids``
    stay member-local for the same reason — the fused batch is never
    scattered directly.
    """
    if not batches:
        raise KernelError("concat_batches needs at least one batch")
    k = batches[0].seeds.shape[1]
    for b in batches:
        if b.seeds.shape[1] != k:
            raise KernelError("cannot fuse batches prepared for different k")
    counts = np.asarray([b.n_warps for b in batches], dtype=np.int64)
    warp_base = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=warp_base[1:])
    fused = Batch(
        contig_ids=[ci for b in batches for ci in b.contig_ids],
        codes=np.empty(0, np.uint8), quals=np.empty(0, np.uint8),
        ins_warp=np.concatenate(
            [b.ins_warp + int(off) for b, off in zip(batches, warp_base)]),
        ins_home=np.concatenate([b.ins_home for b in batches]),
        ins_fp=np.concatenate([b.ins_fp for b in batches]),
        ins_ext=np.concatenate([b.ins_ext for b in batches]),
        ins_hi=np.concatenate([b.ins_hi for b in batches]),
        ins_end=np.concatenate([b.ins_end + off for b, off in zip(
            batches, np.cumsum([0] + [b.ins_warp.size for b in batches]))]),
        seeds=np.concatenate([b.seeds for b in batches], axis=0),
        seed_valid=np.concatenate([b.seed_valid for b in batches]),
        capacities=np.concatenate([b.capacities for b in batches]),
        read_bytes_per_warp=np.concatenate(
            [b.read_bytes_per_warp for b in batches]),
    )
    return fused, warp_base


@dataclass
class FlattenedBin:
    """The k-independent part of one (bin, end) preparation.

    ``ctg_codes`` holds every contig's bases *oriented for the launch
    direction* (reverse-complemented for the left end), concatenated;
    the per-k seed k-mer of warp ``w`` is then always the last ``k``
    codes of its segment, so :meth:`BatchPreparer.finish` extracts all
    seeds with one vectorized gather instead of a per-contig
    string/`end_kmer` loop.
    """

    contig_ids: list[int]
    codes: np.ndarray           # all reads' codes, concatenated
    quals: np.ndarray           # matching qualities
    read_warps: np.ndarray      # warp id per read
    read_lens: np.ndarray       # length per read
    offsets: np.ndarray         # per-read start offsets into codes (n+1)
    read_bytes_per_warp: np.ndarray
    upper_capacities: np.ndarray  # k-independent table-size upper bound
    ctg_codes: np.ndarray       # oriented contig codes, concatenated
    ctg_offsets: np.ndarray     # per-contig start offsets (n_warps+1)
    ctg_lens: np.ndarray        # contig length per warp

    @property
    def n_warps(self) -> int:
        return len(self.contig_ids)


class BatchPreparer:
    """Builds :class:`Batch` launch arrays.

    Args:
        seed: Murmur seed for the insertion pre-hashing.
        load_factor: hash-table occupancy target for size estimation.
        table_sizing: "upper_bound" reserves per-contig capacity from the
            k-independent read-volume bound (Figure 3: tables are sized
            once, before the k iterations run); "exact" sizes from the
            actual insertion count.
    """

    def __init__(self, *, seed: int = 0,
                 load_factor: float = DEFAULT_LOAD_FACTOR,
                 table_sizing: str = "upper_bound") -> None:
        if table_sizing not in ("upper_bound", "exact"):
            raise KernelError(f"unknown table_sizing {table_sizing!r}")
        self.seed = seed
        self.load_factor = load_factor
        self.table_sizing = table_sizing

    # -- stage 1: k-independent ----------------------------------------

    def flatten(self, contigs: list[Contig], bin_: Bin, end: End) -> FlattenedBin:
        """Concatenate one bin's (direction-oriented) reads once."""
        contig_ids = bin_.contig_indices
        code_parts: list[np.ndarray] = []
        qual_parts: list[np.ndarray] = []
        read_lens: list[int] = []
        reads_per_warp = np.empty(len(contig_ids), dtype=np.int64)
        read_bytes = np.zeros(len(contig_ids), dtype=np.int64)
        upper = np.empty(len(contig_ids), dtype=np.int64)
        ctg_parts: list[np.ndarray] = []
        ctg_lens = np.empty(len(contig_ids), dtype=np.int64)
        for w, ci in enumerate(contig_ids):
            contig = contigs[ci]
            end_reads = contig.reads_for_end(end)
            base = len(read_lens)
            for r in end_reads.reads:
                code_parts.append(r.codes)
                qual_parts.append(r.quals)
                read_lens.append(r.codes.size)
            reads_per_warp[w] = len(read_lens) - base
            total_bases = sum(read_lens[base:])
            # The k-independent capacity bound is total_bases/load_factor
            # (a read's k-mer count never exceeds its base count, so the
            # table is sized once for every k, as in Figure 3).
            upper[w] = estimate_table_slots(total_bases, self.load_factor)
            read_bytes[w] = 2 * total_bases
            oriented = (contig.codes if end is End.RIGHT
                        else reverse_complement(contig.codes))
            ctg_parts.append(np.ascontiguousarray(oriented))
            ctg_lens[w] = len(oriented)
        codes = np.concatenate(code_parts) if code_parts else np.empty(0, np.uint8)
        quals = np.concatenate(qual_parts) if qual_parts else np.empty(0, np.uint8)
        lens = np.asarray(read_lens, dtype=np.int64)
        read_warps = np.repeat(np.arange(len(contig_ids), dtype=np.int32),
                               reads_per_warp)
        offsets = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        if end is not End.RIGHT and codes.size:
            # Left-end orientation, batched: reverse-complement every
            # read segment in place of the per-read loop — one mirrored
            # gather over the stream (element i of read r maps to the
            # segment-mirrored position start_r + end_r - 1 - i).
            mirror = (np.repeat(offsets[:-1] + offsets[1:] - 1, lens)
                      - np.arange(codes.size, dtype=np.int64))
            codes = complement(codes)[mirror]
            quals = quals[mirror]
        ctg_codes = (np.concatenate(ctg_parts) if ctg_parts
                     else np.empty(0, np.uint8))
        ctg_offsets = np.zeros(ctg_lens.size + 1, dtype=np.int64)
        np.cumsum(ctg_lens, out=ctg_offsets[1:])
        return FlattenedBin(
            contig_ids=list(contig_ids), codes=codes, quals=quals,
            read_warps=read_warps,
            read_lens=lens, offsets=offsets, read_bytes_per_warp=read_bytes,
            upper_capacities=upper, ctg_codes=ctg_codes,
            ctg_offsets=ctg_offsets, ctg_lens=ctg_lens,
        )

    # -- stage 2: per-k ------------------------------------------------

    def finish(self, flat: FlattenedBin, contigs: list[Contig], end: End,
               k: int) -> Batch:
        """Run the per-k hashing/fingerprint pass over a flattened bin."""
        n_warps = flat.n_warps
        n_ins_per_read = np.maximum(flat.read_lens - k, 0)
        ins_warp = np.repeat(flat.read_warps, n_ins_per_read)

        if self.table_sizing == "upper_bound":
            capacities = flat.upper_capacities.copy()
        else:
            ins_per_warp = np.zeros(n_warps, dtype=np.int64)
            np.add.at(ins_per_warp, flat.read_warps, n_ins_per_read)
            capacities = np.asarray(
                [estimate_table_slots(int(n), self.load_factor)
                 for n in ins_per_warp], dtype=np.int64)

        # Seed k-mers are the last k codes of each oriented contig
        # segment (for the right end that is ``end_kmer(k, RIGHT)``, for
        # the left end the reverse complement of ``end_kmer(k, LEFT)``) —
        # one vectorized gather over all warps.
        seeds = np.zeros((n_warps, k), dtype=np.uint8)
        seed_valid = flat.ctg_lens >= k
        valid = np.nonzero(seed_valid)[0]
        if valid.size:
            seg_ends = flat.ctg_offsets[valid + 1]
            seeds[valid] = flat.ctg_codes[
                (seg_ends - k)[:, None] + np.arange(k, dtype=np.int64)]

        # Hash and fingerprint off the flat stream a stretch of whole reads
        # (VOTE_STRETCH bases, or one read) at a time: no k-mer window
        # crosses a read, so a stretch's digests are the whole stream's,
        # and the word mix, prefix sums and window starts live for one.
        codes, quals, offsets = flat.codes, flat.quals, flat.offsets
        ins_off = np.concatenate(([0], np.cumsum(n_ins_per_read)))
        n = int(ins_off[-1])
        ins_home = np.empty(n, dtype=np.uint32)
        ins_fp = np.empty(n, dtype=np.uint64)
        ins_ext = np.empty(n, dtype=np.uint8)
        ins_hi = np.empty(n, dtype=bool)
        r = 0
        while r < n_ins_per_read.size:
            nxt = max(r + 1, int(np.searchsorted(
                offsets, offsets[r] + VOTE_STRETCH, side="right")) - 1)
            lo, hi = ins_off[r], ins_off[nxt]
            if hi > lo:
                base = offsets[r]
                part = codes[base:offsets[nxt]]
                # a window starts wherever it ends before its read's last base
                starts = np.flatnonzero(np.arange(part.size) < np.repeat(
                    offsets[r + 1:nxt + 1] - (base + k), flat.read_lens[r:nxt]))
                ins_home[lo:hi] = murmur2_stream(part, starts, k, self.seed)
                ins_fp[lo:hi] = rolling_fingerprints(part, k)[starts]
                starts += base + k
                ins_ext[lo:hi] = codes[starts]
                np.greater_equal(quals[starts], DEFAULT_QUAL_THRESHOLD,
                                 out=ins_hi[lo:hi])
            r = nxt
        return Batch(
            contig_ids=list(flat.contig_ids), codes=codes, quals=quals,
            ins_warp=ins_warp, ins_home=ins_home, ins_fp=ins_fp,
            ins_ext=ins_ext, ins_hi=ins_hi,
            ins_end=ins_off[1:][n_ins_per_read > 0] - 1,
            seeds=seeds, seed_valid=seed_valid,
            capacities=capacities, read_bytes_per_warp=flat.read_bytes_per_warp,
        )

    # -- combined ------------------------------------------------------

    def prepare(self, contigs: list[Contig], bin_: Bin, end: End,
                k: int) -> Batch:
        """Flatten and finish for one k; the flatten dies on return."""
        return self.finish(self.flatten(contigs, bin_, end), contigs, end, k)
