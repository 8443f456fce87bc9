"""Smoke test of the ledger harness (``python -m pytest ledger/tests -q``).

Runs every workload once at tiny sizes, traced and untraced, and checks
the output against the benchmark contract. It measures nothing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(LEDGER)
sys.path.insert(0, LEDGER)
sys.path.insert(0, os.path.join(REPO, "src"))

import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def result() -> dict:
    subprocess.run([sys.executable, os.path.join(LEDGER, "run.py"), "--smoke"],
                   cwd=REPO, check=True, timeout=300,
                   stdout=subprocess.DEVNULL)
    with open(os.path.join(LEDGER, "out", "result.json")) as fh:
        return json.load(fh)


def test_manifest_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["ledger"]
    assert spec["command"] == ["python3", "ledger/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # the driver makes 4 + 22 x workloads runs inside 3420 s
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * spec["run_seconds"] < 3420


def test_every_metric_is_reported_with_its_unit(spec, result):
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, entry in result["workloads"].items():
        for record, wanted in ((entry["e2e"][0], spec["end_to_end"]),
                               (entry["layers"], spec["per_layer"])):
            assert record["failed"] == 0 and record["attempted"] >= 1, name
            metrics = record["metrics"]
            assert list(metrics) == [m["name"] for m in wanted], name
            for m in wanted:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"]
                assert isinstance(got["value"], (int, float))
        for m in spec["end_to_end"]:
            assert entry["e2e"][0]["metrics"][m["name"]]["value"] > 0, (
                name, m["name"], "end-to-end metrics are never 0")
        env = entry["e2e"][0]["environment"]
        assert {"nproc", "python", "numpy", "seed", "commit",
                "loadavg_start", "loadavg_end"} <= set(env)


def test_workloads_exercise_the_layers_they_claim(result):
    layers = {name: {k: v["value"] for k, v in entry["layers"]["metrics"].items()}
              for name, entry in result["workloads"].items()}
    for name, values in layers.items():
        assert values["trace.unresolved_hooks"] == 0, name
        assert values["construct.run_s"] > 0 and values["walk.run_s"] > 0, name
        assert values["construct.inserts"] > 0 and values["walk.lookups"] > 0
    assert layers["paper_grid"]["perfmodel.fig5_time_mape"] > 0
    assert layers["paper_grid"]["datasets.generate_s"] > 0
    for name in ("serve_steady", "serve_backlog"):
        for metric in ("protocol.parse_ms", "journal.append_ms",
                       "checkpoint.save_ms", "worker.run_wave_ms",
                       "coalesce.run_s", "batcher.waves",
                       "service.submit_rtt_p50_ms"):
            assert layers[name][metric] > 0, (name, metric)
    assert layers["serve_backlog"]["service.recover_s"] > 0
    assert layers["serve_backlog"]["journal.replay_s"] > 0
    assert layers["serve_backlog"]["checkpoint.load_ms"] > 0


def test_public_hooks_resolve_on_this_tree():
    hooks = tracing.ENGINE_HOOKS + tracing.SERVE_HOOKS
    missing = [h.target for h in hooks
               if not h.private and tracing.resolve(h.target) is None]
    missing += [t for t in tracing.PHASE_FACTORIES
                if tracing.resolve(t) is None]
    assert not missing


def test_fails_without_the_program_under_test(tmp_path):
    """In a directory holding only BENCHMARK.json and ledger/ the benchmark
    must exit non-zero without printing a result."""
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(LEDGER, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "deep_multik",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
