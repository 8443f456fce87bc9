"""Tests for the process-pool sharding helpers."""

import pytest

from repro.core.parallel import chunk_evenly, chunk_size_for
from repro.errors import ReproError


class TestChunkHelpers:
    def test_never_exceeds_task_target(self):
        # the old floor division spilled the remainder into extra tasks
        # (e.g. 10 items / 1 worker -> 5 tasks instead of <= 4)
        for n in range(1, 200):
            for workers in (1, 2, 4, 7):
                chunks = chunk_evenly(list(range(n)), workers)
                assert len(chunks) <= workers * 4, (n, workers)
                assert sum(len(c) for c in chunks) == n
                assert [x for c in chunks for x in c] == list(range(n))

    def test_ceil_division(self):
        assert chunk_size_for(10, 1) == 3   # ceil(10/4), floor gave 2
        assert chunk_size_for(16, 1) == 4
        assert chunk_size_for(17, 1) == 5
        assert chunk_size_for(3, 4) == 1
        assert chunk_size_for(0, 4) == 1

    def test_small_inputs_not_degenerate(self):
        # 9 items, 2 workers: floor gave 1-item chunks (9 tasks);
        # ceil packs them into <= 8 tasks of 2
        chunks = chunk_evenly(list(range(9)), 2)
        assert len(chunks) <= 8
        assert max(len(c) for c in chunks) == 2

    def test_explicit_chunk_size_respected(self):
        chunks = chunk_evenly(list(range(5)), 2, chunk_size=2)
        assert [len(c) for c in chunks] == [2, 2, 1]

    def test_rejects_bad_workers(self):
        with pytest.raises(ReproError):
            chunk_size_for(10, 0)
