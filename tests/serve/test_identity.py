"""Identities do not depend on the clock, the hash seed or the pid.

Fingerprints, checkpoint files, journal records and profile counters are
compared byte for byte across runs (resume, the pinned payload digest,
recovery), so a wall-clock read, an unseeded draw or a process id that
reaches one breaks them only on some later run. Here the same job flow
(``identity_flow.py``) runs in two processes that differ in pid and
``PYTHONHASHSEED``, the second with every clock shifted by 10^6 s, and
everything they persist must be equal. The one exception is the journal
``open`` record's ``pid``, which names the process on purpose.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

FLOW = Path(__file__).with_name("identity_flow.py")


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_identities_survive_another_clock_hash_seed_and_pid(tmp_path):
    src = str(Path(repro.__file__).parents[1])
    runs = []
    for name, hash_seed, shift in (("a", "1", ()), ("b", "2", ("1e6",))):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        runs.append(subprocess.Popen(
            [sys.executable, str(FLOW), str(tmp_path / name), *shift],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT))
    try:
        outs = [proc.communicate(timeout=120)[0] for proc in runs]
    finally:
        for proc in runs:   # a no-op for a process that has exited
            proc.kill()
            proc.wait()
    for proc, out in zip(runs, outs):
        assert proc.returncode == 0, out.decode()

    a, b = (json.loads((tmp_path / n / "identity.json").read_text())
            for n in "ab")
    opened = [run["journal"][0] for run in (a, b)]
    assert [r["op"] for r in opened] == ["open", "open"]
    assert opened[0].pop("pid") != opened[1].pop("pid")
    assert [r["op"] for r in a["journal"]] == [
        "open", "submit", "dispatch", "finish", "shutdown"]
    assert a == b
    for store in ("ck", "asm"):
        files = _files(tmp_path / "a" / store)
        assert files and files == _files(tmp_path / "b" / store), store
