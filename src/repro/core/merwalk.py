"""Algorithm 2: DNA walks (mer-walks) through the de Bruijn hash table.

Starting from the k-mer at the end of a contig, each step looks the
current k-mer up in the table, resolves the extension votes, appends the
chosen base, and shifts the k-mer window by one. The walk terminates on:

* ``END``  — no sufficiently supported next base,
* ``FORK`` — ambiguous branch (two well-supported bases),
* ``LOOP`` — the next k-mer was already visited in this walk,
* ``MAX_LEN`` — the configured cap on extension length,
* ``MISSING`` — the seed (or a shifted k-mer) is absent from the table.

On the GPU a single lane of the warp performs this loop (the other lanes
are predicated off); the CPU form here is the walk of the ``scalar``
backend (:class:`repro.kernels.engine.backend.ScalarReferenceBackend`),
the behavioural reference the SIMT kernels are differential-tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.extension import DEFAULT_POLICY, WalkPolicy, WalkState, resolve_extension
from repro.core.hashtable import LocalHashTable
from repro.errors import KmerError
from repro.genomics.dna import decode

#: Default cap on walk length, matching the GPU kernel's max_walk_len.
DEFAULT_MAX_WALK_LEN = 300


@dataclass
class WalkResult:
    """Outcome of one mer-walk.

    Attributes:
        bases: the appended extension (may be empty).
        state: terminal :class:`WalkState`.
        steps: number of hash-table lookups performed.
        k: the k-mer size used.
    """

    bases: str
    state: WalkState
    steps: int
    k: int

    def __len__(self) -> int:
        return len(self.bases)

    @property
    def accepted(self) -> bool:
        """The paper's "walk accepted?" test (Figure 4).

        A walk is accepted unless it stopped at a *fork*: forks are
        exactly what re-running with a larger k can resolve (Figure 1),
        so a forked walk triggers the next k iteration.
        """
        return self.state is not WalkState.FORK


def mer_walk(
    table: LocalHashTable,
    seed_kmer: np.ndarray,
    max_walk_len: int = DEFAULT_MAX_WALK_LEN,
    policy: WalkPolicy = DEFAULT_POLICY,
) -> WalkResult:
    """Walk the de Bruijn graph rightwards from ``seed_kmer``.

    Args:
        table: a constructed :class:`LocalHashTable` (keys of length ``k``).
        seed_kmer: encoded k-mer at the contig end (length must equal
            ``table.k``).
        max_walk_len: maximum number of bases to append.
        policy: vote-resolution thresholds.
    """
    seed_kmer = np.asarray(seed_kmer, dtype=np.uint8)
    if seed_kmer.shape != (table.k,):
        raise KmerError(
            f"seed k-mer length {seed_kmer.shape[0] if seed_kmer.ndim else 0} != k={table.k}"
        )
    current = seed_kmer.copy()
    visited: set[bytes] = {current.tobytes()}
    out: list[str] = []
    steps = 0
    state = WalkState.MAX_LEN
    while len(out) < max_walk_len:
        steps += 1
        slot = table.lookup(current)
        if slot is None:
            state = WalkState.MISSING if steps == 1 else WalkState.END
            break
        step_state, base_code = resolve_extension(slot.votes, policy)
        if step_state is not WalkState.EXTEND:
            state = step_state
            break
        current = np.concatenate([current[1:], np.uint8([base_code])])
        key = current.tobytes()
        if key in visited:
            state = WalkState.LOOP
            break
        visited.add(key)
        out.append(decode(np.uint8([base_code])))
    else:
        state = WalkState.MAX_LEN
    return WalkResult(bases="".join(out), state=state, steps=steps, k=table.k)
