"""Synthetic regeneration of the paper's datasets (Table II shapes).

For each contig we draw a read count from an over-dispersed (gamma-
Poisson) distribution — real contigs vary widely in how many reads align
to their ends, which is exactly why the GPU workflow bins by read count —
then lay the reads over the contig-end junctions of a hidden true region
so that a correct mer-walk can extend each end by roughly the Table II
average extension length.

``scale`` shrinks the *number of contigs* (and with it reads/insertions
proportionally) while preserving every per-contig property, so scaled
runs exercise identical per-warp behaviour at a fraction of the cost; the
benches print the scale they used.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.characteristics import TABLE_II, DatasetCharacteristics
from repro.errors import DatasetError
from repro.genomics.contig import Contig, End
from repro.genomics.reads import ReadSet
from repro.genomics.simulate import ErrorProfile, sequence_read, simulate_genome

#: Default sequencing noise for generated datasets (Illumina-like).
DEFAULT_PROFILE = ErrorProfile(error_rate=0.001, lo_quality_fraction=0.03)

#: How much true flank to provide beyond the expected extension length.
FLANK_MARGIN = 1.35

#: Dispersion of the per-contig read-count distribution (gamma shape).
DEPTH_DISPERSION = 6.0

#: Per-k multiplier applied to the Table II mean when drawing extension
#: targets. Walks lose length to coverage ends, forks and missing seeds;
#: larger k (longer chains, depth closer to 1) loses more, so its draws
#: aim higher. Fitted so the *measured* average extension matches Table II.
TARGET_EXT_MULTIPLIER = {21: 1.0, 33: 1.05, 55: 1.35, 77: 2.2}


def _draw_read_counts(n_contigs: int, mean: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Over-dispersed per-contig read counts with the requested mean."""
    lam = rng.gamma(shape=DEPTH_DISPERSION, scale=mean / DEPTH_DISPERSION,
                    size=n_contigs)
    counts = np.maximum(rng.poisson(lam), 1)
    # renormalize to the requested total: clamping at >=1 inflates the
    # mean, and small samples can land off-target in either direction
    target_total = round(mean * n_contigs)
    excess = int(counts.sum()) - target_total
    while excess > 0:
        reducible = np.nonzero(counts > 1)[0]
        if reducible.size == 0:
            break
        take = min(excess, reducible.size)
        counts[rng.choice(reducible, size=take, replace=False)] -= 1
        excess -= take
    while excess < 0:
        take = min(-excess, n_contigs)
        counts[rng.choice(n_contigs, size=take, replace=False)] += 1
        excess += take
    return counts


def generate_paper_dataset(
    k: int,
    scale: float = 1.0,
    seed: int = 2024,
    profile: ErrorProfile = DEFAULT_PROFILE,
    targets: DatasetCharacteristics | None = None,
) -> list[Contig]:
    """Generate a dataset matching (a scaled) Table II row for ``k``.

    Args:
        k: one of the production k-mer sizes (21, 33, 55, 77), or any k if
            explicit ``targets`` are given.
        scale: fraction of the paper's contig count to generate.
        seed: RNG seed (datasets are fully reproducible).
        profile: sequencing error model.
        targets: override the Table II row (used by tests and ablations).

    Returns:
        Contigs with end-assigned reads, ready for local assembly.
    """
    if targets is None:
        if k not in TABLE_II:
            raise DatasetError(
                f"k={k} has no Table II row; pass explicit targets"
            )
        targets = TABLE_II[k]
    t = targets.scaled(scale)
    rng = np.random.default_rng(seed + k)

    read_len_mean = t.average_read_length
    reads_per_contig = _draw_read_counts(t.total_contigs, t.reads_per_contig, rng)
    # per-end extension target; Table II's average is per contig (both ends)
    per_end_ext = t.average_extn_length / 2.0
    rl0 = int(read_len_mean)
    max_ext = max(int(per_end_ext * 3), rl0)
    flank = max_ext + k + 8
    # contigs are longer than a read so the two end regions are disjoint
    # and every read serves exactly one end (as MetaHipMer's alignment
    # assignment guarantees)
    contig_len = rl0 + 60

    contigs: list[Contig] = []
    for i in range(t.total_contigs):
        region_len = contig_len + 2 * flank
        region = simulate_genome(region_len, rng)
        contig = Contig(name=f"contig{i}",
                        codes=region[flank : flank + contig_len].copy())
        n_reads = int(reads_per_contig[i])
        n_right = (n_reads + (i % 2)) // 2
        reads = ReadSet()
        hints: list[End] = []
        max_step = max(1, (rl0 - 6) - k - 2)
        mult = TARGET_EXT_MULTIPLIER.get(k, 1.3)
        j = 0
        for end, n_end in ((End.RIGHT, n_right), (End.LEFT, n_reads - n_right)):
            if n_end == 0:
                continue
            # this end's extension target, capped by its read-chain budget
            budget = max(4.0, (n_end - 1) * max_step + rl0 - k - 8)
            target = min(budget, rng.gamma(2.0, mult * per_end_ext / 2.0))
            junction = flank + contig_len if end is End.RIGHT else flank
            for s in _chain_read_starts(junction, target, n_end, rl0, k,
                                        region_len, end, rng):
                rl = min(max(round(rng.normal(read_len_mean, 3.0)), rl0 - 6),
                         rl0 + 6, region_len - s)
                reads.append(sequence_read(region, s, rl, rng, profile,
                                           name=f"contig{i}/r{j}"))
                hints.append(end)
                j += 1
        contig.reads = reads
        contig.read_end_hints = hints
        contigs.append(contig)
    return contigs


def _chain_read_starts(
    junction: int, target_ext: float, n_reads: int, read_len: int,
    k: int, region_len: int, end: End, rng: np.random.Generator,
) -> list[int]:
    """Start positions for one end's read chain.

    The first read straddles the junction (covering the seed k-mer); each
    subsequent read overlaps the previous by at least ``k + 8`` bases so a
    walk can hop read-to-read out to ``target_ext`` bases past the
    junction, where the evidence stops. Reads left over once the target is
    reachable stack on the span (deeper coverage), giving the binning
    phase its depth spread. The left end is the mirror image.
    """
    rl = int(read_len)
    first_reach = rl - k - 8
    max_step = max(1, (rl - 6) - k - 2)
    if n_reads > 1:
        step = min(max_step, max(1, int((target_ext - first_reach) / (n_reads - 1))))
    else:
        step = 0
    starts: list[int] = []
    if end is End.RIGHT:
        s = junction - k - 8  # covers the seed k-mer plus a small anchor
        limit = junction + target_ext
        for _ in range(n_reads):
            jitter = int(rng.integers(-2, 3)) if starts else 0
            s_j = max(0, min(s + jitter, int(limit) - rl, region_len - rl))
            starts.append(s_j)
            s += max(1, step)
    else:
        s = junction + k + 8 - rl
        limit = junction - target_ext
        for _ in range(n_reads):
            jitter = int(rng.integers(-2, 3)) if starts else 0
            s_j = min(region_len - rl, max(s + jitter, int(limit), 0))
            starts.append(s_j)
            s -= max(1, step)
    return starts
