"""Algorithms 1 and 2 with Python dicts and strings: the scalar telling.

No hash tables, no probing, no encodings — correctness is obvious by
inspection. This is what the ``scalar`` backend
(:class:`repro.kernels.engine.backend.ScalarReferenceBackend`) runs per
contig end, and so the CPU reference the SIMT kernels in
:mod:`repro.kernels` are differential-tested against.

A walk stops on ``END`` (no supported next base), ``FORK`` (two
well-supported bases), ``LOOP`` (a k-mer seen before in this walk),
``MAX_LEN`` (the length cap) or ``MISSING`` (the seed is not in the
table).
"""

from __future__ import annotations

from repro.core.extension import (
    DEFAULT_MAX_WALK_LEN,
    DEFAULT_POLICY,
    ExtensionVotes,
    WalkPolicy,
    WalkState,
    resolve_extension,
)
from repro.genomics.dna import BASES
from repro.genomics.reads import ReadSet


def reference_table(reads: ReadSet, k: int) -> dict[str, ExtensionVotes]:
    """Algorithm 1: every k-mer with a following base votes for that base."""
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
    max_walk_len: int = DEFAULT_MAX_WALK_LEN,
    policy: WalkPolicy = DEFAULT_POLICY,
) -> tuple[str, WalkState, int]:
    """Algorithm 2 from ``seed``; returns ``(bases, state, steps)``, where
    ``steps`` counts table lookups."""
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
