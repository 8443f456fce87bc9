"""Deliberately simple dict-based local assembly, for differential testing.

This module re-implements Algorithm 1 + Algorithm 2 with Python dicts and
strings — no hash tables, no probing, no encodings — so that the
optimized implementations (:mod:`repro.core` and the SIMT kernels in
:mod:`repro.kernels`) can be checked against an implementation whose
correctness is obvious by inspection.
"""

from __future__ import annotations

from repro.core.extension import (
    DEFAULT_POLICY,
    ExtensionVotes,
    WalkPolicy,
    WalkState,
    resolve_extension,
)
from repro.genomics.contig import Contig, End
from repro.genomics.dna import BASES, reverse_complement
from repro.genomics.reads import ReadSet


def reference_table(reads: ReadSet, k: int) -> dict[str, ExtensionVotes]:
    """Dict-of-votes version of Algorithm 1."""
    table: dict[str, ExtensionVotes] = {}
    for read in reads:
        seq = read.sequence
        for i in range(len(seq) - k):
            votes = table.setdefault(seq[i : i + k], ExtensionVotes())
            votes.vote("ACGT".index(seq[i + k]), int(read.quals[i + k]))
    return table


def reference_walk(
    table: dict[str, ExtensionVotes],
    seed: str,
    max_walk_len: int = 300,
    policy: WalkPolicy = DEFAULT_POLICY,
) -> tuple[str, WalkState, int]:
    """String version of Algorithm 2; returns ``(bases, state, steps)``."""
    current = seed
    visited = {current}
    out: list[str] = []
    steps = 0
    while len(out) < max_walk_len:
        steps += 1
        votes = table.get(current)
        if votes is None:
            return "".join(out), (WalkState.MISSING if steps == 1 else WalkState.END), steps
        state, code = resolve_extension(votes, policy)
        if state is not WalkState.EXTEND:
            return "".join(out), state, steps
        current = current[1:] + BASES[code]
        if current in visited:
            return "".join(out), WalkState.LOOP, steps
        visited.add(current)
        out.append(BASES[code])
    return "".join(out), WalkState.MAX_LEN, steps


def reference_extend(
    contig: Contig,
    k: int,
    max_walk_len: int = 300,
    policy: WalkPolicy = DEFAULT_POLICY,
) -> dict[End, tuple[str, WalkState]]:
    """Extend both ends of ``contig`` at a single k; returns per-end results.

    The left end is handled exactly like the scalar backend does it:
    walk the reverse-complemented problem rightwards, then
    reverse-complement the extension back.
    """
    results: dict[End, tuple[str, WalkState]] = {}
    table = reference_table(contig.reads, k)
    seed = contig.sequence[-k:]
    bases, state, _ = reference_walk(table, seed, max_walk_len, policy)
    results[End.RIGHT] = (bases, state)

    rc_reads = ReadSet()
    from repro.genomics.reads import Read

    for r in contig.reads:
        rc_reads.append(Read(name=r.name, codes=reverse_complement(r.codes),
                             quals=r.quals[::-1].copy()))
    rc_table = reference_table(rc_reads, k)
    rc_seed = reverse_complement(contig.sequence[:k])
    assert isinstance(rc_seed, str)
    bases, state, _ = reference_walk(rc_table, rc_seed, max_walk_len, policy)
    rc_bases = reverse_complement(bases)
    assert isinstance(rc_bases, str)
    results[End.LEFT] = (rc_bases, state)
    return results
