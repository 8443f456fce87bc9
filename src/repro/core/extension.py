"""Extension votes and the mer-walk step-resolution rule.

Each hash-table slot accumulates, per possible next base, how many reads
voted for that base with high quality and how many with low quality
(the ``hi_q_exts`` / ``low_q_exts`` arrays of the GPU ``loc_ht`` struct).
A walk step inspects those eight counters and decides to *extend* with a
base, declare a *fork* (ambiguous branch), or *end* (insufficient
evidence) — the three terminal conditions of Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.genomics.dna import BASES
from repro.genomics.reads import DEFAULT_QUAL_THRESHOLD


class WalkState(Enum):
    """Terminal (or per-step) state of a mer-walk."""

    EXTEND = "extend"    # per-step: a base was chosen
    END = "end"          # no sufficiently supported next base
    FORK = "fork"        # two well-supported competing next bases
    LOOP = "loop"        # walk revisited a k-mer
    MAX_LEN = "max_len"  # hit the walk-length cap
    MISSING = "missing"  # k-mer not present in the table


@dataclass
class ExtensionVotes:
    """Per-base extension evidence for one k-mer (one hash-table value)."""

    hi_q: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=np.int64))
    low_q: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=np.int64))
    count: int = 0

    def vote(self, base_code: int, qual: int,
             threshold: int = DEFAULT_QUAL_THRESHOLD) -> None:
        """Record one read's vote for ``base_code`` with phred ``qual``."""
        if qual >= threshold:
            self.hi_q[base_code] += 1
        else:
            self.low_q[base_code] += 1
        self.count += 1

    def merge(self, other: "ExtensionVotes") -> None:
        """Accumulate another vote set (used when merging thread collisions)."""
        self.hi_q += other.hi_q
        self.low_q += other.low_q
        self.count += other.count


@dataclass(frozen=True)
class WalkPolicy:
    """Tunable thresholds of the walk-resolution rule.

    Attributes:
        hi_q_min_depth: minimum high-quality votes for the hi-q counters
            alone to be trusted; below this, hi+low pooled counts are used.
        min_depth: minimum votes on the winning base to extend at all.
        dominance: the winner must have at least ``dominance`` times the
            votes of the runner-up, otherwise the step is a FORK.
    """

    hi_q_min_depth: int = 2
    min_depth: int = 2
    dominance: int = 2


DEFAULT_POLICY = WalkPolicy()

#: MetaHipMer-like production thresholds: a single confident read may carry
#: a walk (extensions chain across reads, giving the long extensions of
#: Table II), ambiguity still forks. The paper-reproduction experiments use
#: this policy; the conservative :data:`DEFAULT_POLICY` remains the library
#: default.
PRODUCTION_POLICY = WalkPolicy(hi_q_min_depth=2, min_depth=1, dominance=2)


def resolve_extension(
    votes: ExtensionVotes, policy: WalkPolicy = DEFAULT_POLICY
) -> tuple[WalkState, int]:
    """Decide the next walk step from one slot's vote counters.

    Returns ``(state, base_code)``; ``base_code`` is only meaningful when
    ``state is WalkState.EXTEND``. The rule (matching MetaHipMer's
    walk semantics at the level the paper describes):

    1. Use high-quality counts if their best base reaches
       ``hi_q_min_depth``; otherwise pool the counts with high-quality
       votes carrying double weight (a confident base call outvotes a
       low-quality one — this is what the hi/low split in the ``loc_ht``
       value exists for; without it every low-quality sequencing error
       would tie a true high-quality vote and fork the walk).
    2. END if the best base has fewer than ``min_depth`` *raw* votes
       (hi + low, unweighted — a lone low-quality read is still evidence
       when nothing contradicts it).
    3. FORK if the runner-up is too competitive on the weighted counts
       (``runner * dominance > best``).
    4. Otherwise EXTEND with the best base.

    Weighted comparisons run on doubled counts so the half-weight of
    low-quality votes stays in integers.
    """
    hi_best = int(votes.hi_q.max())
    if hi_best >= policy.hi_q_min_depth:
        counts = 2 * votes.hi_q
    else:
        counts = 2 * votes.hi_q + votes.low_q
    order = np.argsort(counts, kind="stable")
    best_code = int(order[-1])
    best = int(counts[best_code])
    runner = int(counts[order[-2]])
    raw_best = int(votes.hi_q[best_code] + votes.low_q[best_code])
    if raw_best < policy.min_depth:
        return WalkState.END, -1
    if runner * policy.dominance > best:
        return WalkState.FORK, -1
    return WalkState.EXTEND, best_code


#: Integer codes covering *every* walk state, for lockstep state arrays
#: (the megabatched walk keeps per-warp terminal states as int8). The
#: vectorized resolver emits the first three (order matters for tests).
WALK_STATE_CODES = {
    WalkState.EXTEND: 0,
    WalkState.END: 1,
    WalkState.FORK: 2,
    WalkState.LOOP: 3,
    WalkState.MAX_LEN: 4,
    WalkState.MISSING: 5,
}

#: Inverse of :data:`WALK_STATE_CODES`, indexable by code.
CODE_TO_WALK_STATE = tuple(
    s for s, _ in sorted(WALK_STATE_CODES.items(), key=lambda kv: kv[1])
)


def resolve_extension_batch(
    hi_q: np.ndarray, low_q: np.ndarray, policy: WalkPolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`resolve_extension` over ``(n, 4)`` count matrices.

    Returns ``(state_codes, base_codes)`` where state codes follow
    :data:`WALK_STATE_CODES` and base codes are -1 except for EXTEND rows.
    Row ``i`` resolves identically to
    ``resolve_extension(ExtensionVotes(hi_q[i], low_q[i]))`` — a property
    the test suite checks exhaustively.
    """
    hi_q = np.asarray(hi_q, dtype=np.int64).reshape(-1, 4)
    low_q = np.asarray(low_q, dtype=np.int64).reshape(-1, 4)
    use_hi = hi_q.max(axis=1) >= policy.hi_q_min_depth
    counts = np.where(use_hi[:, None], 2 * hi_q, 2 * hi_q + low_q)
    order = np.argsort(counts, axis=1, kind="stable")
    best_code = order[:, -1]
    rows = np.arange(counts.shape[0])
    best = counts[rows, best_code]
    runner = counts[rows, order[:, -2]]
    states = np.full(counts.shape[0], WALK_STATE_CODES[WalkState.EXTEND],
                     dtype=np.int8)
    bases = best_code.astype(np.int8)
    fork = runner * policy.dominance > best
    states[fork] = WALK_STATE_CODES[WalkState.FORK]
    bases[fork] = -1
    raw_best = (hi_q + low_q)[rows, best_code]
    end = raw_best < policy.min_depth
    states[end] = WALK_STATE_CODES[WalkState.END]
    bases[end] = -1
    return states, bases


def describe_votes(votes: ExtensionVotes) -> str:
    """Human-readable rendering, e.g. ``A:3+1 C:0+0 G:1+0 T:0+2 (7 reads)``."""
    parts = [
        f"{BASES[i]}:{int(votes.hi_q[i])}+{int(votes.low_q[i])}" for i in range(4)
    ]
    return " ".join(parts) + f" ({votes.count} reads)"
