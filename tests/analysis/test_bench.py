"""Tests for the pinned-scale bench harness behind ``repro bench``."""

import copy
import json

from repro.analysis.bench import (
    MAX_REGRESSION,
    SMOKE,
    BenchScale,
    bench_contigs,
    compare_bench,
    run_scale,
)
from repro.cli import main

#: A sub-second scale for exercising the full measure/compare path.
TINY = BenchScale(name="smoke", n_contigs=4, k_schedule=(21,),
                  contig_length=100, flank_length=40, read_length=60,
                  depth=4, seed_window=30,
                  error_rate=0.005, lo_quality_fraction=0.1)


def _doc(scale=TINY, repeats=1):
    return {"schema": 1, "scales": {scale.name: run_scale(scale, repeats)}}


class TestRunScale:
    def test_deterministic_counters(self):
        a, b = run_scale(TINY, repeats=1), run_scale(TINY, repeats=1)
        assert a["counters"] == b["counters"]
        assert a["pins"] == b["pins"]

    def test_document_shape(self):
        doc = run_scale(TINY, repeats=1)
        assert doc["wall_s"] > 0
        assert doc["throughput_contigs_per_s"] > 0
        assert doc["peak_rss_kb"] > 0
        assert doc["counters"]["events"]  # instrumented pass counted events
        assert doc["counters"]["profile"]["contigs"] == TINY.n_contigs

    def test_contigs_pinned_by_seed(self):
        a, b = bench_contigs(SMOKE), bench_contigs(SMOKE)
        assert len(a) == SMOKE.n_contigs
        assert all(x.name == y.name for x, y in zip(a, b))


class TestCompareBench:
    def test_identical_passes(self):
        doc = _doc()
        assert compare_bench(doc, copy.deepcopy(doc)) == []

    def test_counter_divergence_names_the_leaf(self):
        base = _doc()
        cur = copy.deepcopy(base)
        cur["scales"]["smoke"]["counters"]["events"]["ProbeIteration"] += 1
        problems = compare_bench(base, cur)
        assert len(problems) == 1
        assert "identity diverged" in problems[0]
        assert "ProbeIteration" in problems[0]

    def test_divergence_says_functional_field_or_simulated_counter(self):
        base = _doc()
        cur = copy.deepcopy(base)
        cur["scales"]["smoke"]["counters"]["profile"]["inserts"] += 1
        (problem,) = compare_bench(base, cur)
        assert "a simulated counter (functional fields identical)" in problem
        assert "profile.inserts" in problem
        # a functional field is reported first, whatever else moved
        cur["scales"]["smoke"]["counters"]["right_bases"] += 1
        (problem,) = compare_bench(base, cur)
        assert "a functional field" in problem and "right_bases" in problem

    def test_timing_jitter_tolerated_but_regression_caught(self):
        base = _doc()
        cur = copy.deepcopy(base)
        tp = base["scales"]["smoke"]["throughput_contigs_per_s"]
        cur["scales"]["smoke"]["throughput_contigs_per_s"] = tp * 0.9
        assert compare_bench(base, cur) == []  # within the 25% gate
        cur["scales"]["smoke"]["throughput_contigs_per_s"] = \
            tp * (1 - MAX_REGRESSION) * 0.9
        problems = compare_bench(base, cur)
        assert len(problems) == 1 and "regressed" in problems[0]

    def test_schema_change_rejected(self):
        base = _doc()
        cur = copy.deepcopy(base)
        cur["schema"] = 99
        assert any("schema" in p for p in compare_bench(base, cur))

    def test_missing_scale_skipped(self):
        base = _doc()
        assert compare_bench(base, {"schema": 1, "scales": {}}) == []


class TestBenchCli:
    def test_writes_and_gates(self, tmp_path, capsys, monkeypatch):
        import repro.analysis.bench as bench_mod

        monkeypatch.setattr(bench_mod, "SMOKE", TINY)
        monkeypatch.setattr(bench_mod, "_SCALES", {"smoke": TINY})
        out = tmp_path / "BENCH_engine.json"
        rc = main(["bench", "--smoke", "--repeats", "1",
                   "--output", str(out), "--baseline", str(out)])
        assert rc == 0
        assert "no baseline" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert set(doc["scales"]) == {"smoke"}

        # second run gates against the first and passes (identity only:
        # one repeat of a sub-second scale says nothing about the band)
        rc = main(["bench", "--smoke", "--repeats", "1",
                   "--max-regression", "1.0",
                   "--output", str(out), "--baseline", str(out)])
        assert rc == 0
        assert "identity match" in capsys.readouterr().out

    def test_identity_divergence_fails(self, tmp_path, capsys, monkeypatch):
        import repro.analysis.bench as bench_mod

        monkeypatch.setattr(bench_mod, "SMOKE", TINY)
        monkeypatch.setattr(bench_mod, "_SCALES", {"smoke": TINY})
        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--output", str(out), "--baseline", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["scales"]["smoke"]["counters"]["k"] += 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(doc))
        rc = main(["bench", "--smoke", "--repeats", "1",
                   "--output", str(out), "--baseline", str(baseline)])
        assert rc == 1
        assert "identity diverged" in capsys.readouterr().err

    def test_smoke_rerun_preserves_other_scales(self, tmp_path, monkeypatch):
        import repro.analysis.bench as bench_mod

        monkeypatch.setattr(bench_mod, "SMOKE", TINY)
        monkeypatch.setattr(bench_mod, "_SCALES", {"smoke": TINY})
        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--output", str(out), "--baseline", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["scales"]["full"] = {"pins": {}, "counters": {}, "wall_s": 1.0,
                                 "throughput_contigs_per_s": 1.0,
                                 "peak_rss_kb": 1}
        out.write_text(json.dumps(doc))
        assert main(["bench", "--smoke", "--repeats", "1",
                     "--max-regression", "1.0",
                     "--output", str(out), "--baseline", str(out)]) == 0
        rewritten = json.loads(out.read_text())
        assert set(rewritten["scales"]) == {"smoke", "full"}
