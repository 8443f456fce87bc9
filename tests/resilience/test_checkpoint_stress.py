"""Concurrency stress for :class:`CheckpointStore`.

N processes hammer the same checkpoint directory — saving the same
``(device, k)`` run, loading it back, and constructing fresh stores
(which sweep stale scratch files) the whole time. The invariants:

* a load never observes a torn/corrupt file (writes are staged per-pid
  and renamed atomically);
* scratch files of *live* writers are never swept out from under them;
* after the dust settles there is exactly one checkpoint and zero
  ``.tmp`` leftovers.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.resilience import CheckpointStore

pytestmark = pytest.mark.resilience

META = {"scale": 0.004, "seed": 7}
N_PROCS = 4
N_ITERS = 25


def _tiny_data(tag: int) -> dict:
    """A minimal checkpoint body whose content varies with ``tag``."""
    return {"right": [["ACGT", "end"]], "left": [["", "missing"]],
            "degraded": [tag]}


def _hammer(args: tuple) -> int:
    """Worker: save/load the same run repeatedly; returns OK iterations."""
    directory, worker_id, iters = args
    ok = 0
    for i in range(iters):
        # fresh store every iteration: exercises the stale-tmp sweep
        # racing against other processes' in-flight writes
        store = CheckpointStore(directory, meta=META)
        store.save("A100", 21, _tiny_data(worker_id * 1000 + i))
        loaded = store.load_named("A100", 21)
        assert loaded is not None
        # whatever writer won, the record is one of ours and intact
        (tag,) = loaded["degraded"]
        assert loaded == _tiny_data(tag)
        assert store.completed() == {("A100", 21)}
        ok += 1
    return ok


class TestConcurrentWriters:
    def test_no_corruption_or_leaks(self, tmp_path):
        with ProcessPoolExecutor(max_workers=N_PROCS) as pool:
            results = list(pool.map(
                _hammer,
                [(str(tmp_path), w, N_ITERS) for w in range(N_PROCS)]))
        assert results == [N_ITERS] * N_PROCS

        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["A100_k21.json"]  # one checkpoint, zero .tmp
        payload = json.loads((tmp_path / "A100_k21.json").read_text())
        assert payload["meta"] == META

        final = CheckpointStore(tmp_path, meta=META)
        assert final.load_named("A100", 21) is not None
        assert final.completed() == {("A100", 21)}


class TestTmpLifecycle:
    def test_unique_per_process_tmp_name(self, tmp_path):
        store = CheckpointStore(tmp_path, meta=META)
        path = store.save("A100", 21, _tiny_data(0))
        assert path.name == "A100_k21.json"
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_save_cleans_its_tmp(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path, meta=META)

        def boom(fd):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(OSError, match="disk on fire"):
            store.save("A100", 21, _tiny_data(0))
        assert not list(tmp_path.glob("*.tmp"))
        assert not (tmp_path / "A100_k21.json").exists()

    def test_init_sweeps_dead_writer_tmps(self, tmp_path):
        stale_pid = (tmp_path / "A100_k21.json.999999999.tmp")
        stale_pid.write_text("{partial")
        legacy = tmp_path / "A100_k21.tmp"  # pre-fix shared tmp name
        legacy.write_text("{partial")
        CheckpointStore(tmp_path, meta=META)
        assert not stale_pid.exists()
        assert not legacy.exists()

    def test_init_keeps_live_writer_tmps(self, tmp_path):
        live = tmp_path / f"A100_k21.json.{os.getpid()}.tmp"
        live.write_text("{in flight")
        CheckpointStore(tmp_path, meta=META)
        assert live.exists()  # this process is alive: not stale
        live.unlink()
