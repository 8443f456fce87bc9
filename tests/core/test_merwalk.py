"""Tests for Algorithm 2 (mer-walks) over the dict k-mer table."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import WalkPolicy, WalkState
from repro.core.reference import reference_table, reference_walk
from repro.genomics.reads import Read, ReadSet

RELAXED = WalkPolicy(min_depth=1, hi_q_min_depth=1)


def _table(seqs, k, copies=2):
    """Build a table where each sequence appears `copies` times (clear votes)."""
    rs = ReadSet(
        [Read.from_strings(f"r{i}_{j}", s) for i, s in enumerate(seqs) for j in range(copies)]
    )
    return reference_table(rs, k)


class TestWalks:
    def test_simple_linear_walk(self):
        # Reads spell GATTACACC; contig ends with GATT -> walk ACACC... up to end
        t = _table(["GATTACACC"], 4)
        bases, state, steps = reference_walk(t, "GATT")
        assert bases == "ACACC"
        assert state is WalkState.END  # ran off the read
        assert steps == len("ACACC") + 1

    def test_missing_seed(self):
        t = _table(["GATTACACC"], 4)
        bases, state, _ = reference_walk(t, "TTTT")
        assert state is WalkState.MISSING
        assert bases == ""

    def test_fork_detected(self):
        # After ACGT the evidence splits evenly: A-branch and C-branch.
        t = _table(["TACGTA", "TACGTC"], 4)
        bases, state, _ = reference_walk(t, "TACG")
        # first step extends T (unanimous), second step forks A vs C
        assert state is WalkState.FORK
        assert bases == "T"

    def test_loop_detected(self):
        # Circular repeat: AAAA always extends with A -> immediate self-loop.
        t = _table(["AAAAAA"], 4)
        bases, state, _ = reference_walk(t, "AAAA")
        assert state is WalkState.LOOP
        assert bases == ""

    def test_longer_loop_detected(self):
        # ACGACGACG...: k-mer cycle of period 3.
        t = _table(["ACGACGACGACG"], 3)
        bases, state, _ = reference_walk(t, "ACG")
        assert state is WalkState.LOOP
        assert len(bases) < 4

    def test_max_walk_len(self):
        t = _table(["GATTACACCGGTT"], 4)
        bases, state, _ = reference_walk(t, "GATT", max_walk_len=3)
        assert state is WalkState.MAX_LEN
        assert bases == "ACA"

    def test_wrong_seed_length(self):
        # a seed that is not k long is no key of the table
        t = _table(["GATTACA"], 4)
        assert reference_walk(t, "GATTA")[:2] == ("", WalkState.MISSING)

    def test_insufficient_depth_ends(self):
        # single copy -> best vote count 1 < min_depth 2 under default policy
        t = _table(["GATTACACC"], 4, copies=1)
        bases, state, _ = reference_walk(t, "GATT")
        assert state is WalkState.END
        assert bases == ""

    def test_relaxed_policy_extends_single_copy(self):
        t = _table(["GATTACACC"], 4, copies=1)
        bases, _, _ = reference_walk(t, "GATT", policy=RELAXED)
        assert bases == "ACACC"

    def test_errors_outvoted(self):
        # Four good reads vs one read with an error mid-way: walk follows majority.
        good = "ACGTTGCAAC"
        bad = "ACGTTACAAC"  # G->A at position 5
        rs = ReadSet([Read.from_strings(f"g{i}", good) for i in range(4)]
                     + [Read.from_strings("b", bad)])
        bases, _, _ = reference_walk(reference_table(rs, 4), "ACGT")
        assert bases == good[4:]

    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="ACGT", min_size=10, max_size=60))
    def test_walk_never_exceeds_cap(self, seq):
        t = _table([seq], 5)
        bases, _, _ = reference_walk(t, seq[:5], max_walk_len=7, policy=RELAXED)
        assert len(bases) <= 7
