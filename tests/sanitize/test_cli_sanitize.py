"""CLI wiring: ``repro lint`` and ``repro run --sanitize`` exit codes."""

import json

import pytest

from repro.cli import main
from repro.kernels import CudaLocalAssemblyKernel

from .mutants import MutantConstructPhase, MutantWalkPhase


@pytest.fixture(scope="module")
def dat(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.dat"
    assert main(["generate", "21", str(path), "--scale", "0.002"]) == 0
    return str(path)


# ----------------------------------------------------------------------
# repro lint


def test_lint_shipped_src_is_clean(capsys):
    assert main(["lint", "src"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_violating_fixture_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REP001" in out
    assert f"{bad}:2:" in out


def test_lint_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    assert main(["lint", str(bad), "--format", "json"]) == 1
    records = json.loads(capsys.readouterr().out)
    assert records[0]["rule"] == "REP001"


def test_lint_select_filters_rules(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    assert main(["lint", str(bad), "--select", "REP005"]) == 0
    assert main(["lint", str(bad), "--select", "REP999"]) == 2


def test_lint_select_accepts_ranges_and_prefixes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    # REP001 is outside the semantic range, inside the REP0 prefix
    assert main(["lint", str(bad), "--select", "REP009-REP013"]) == 0
    capsys.readouterr()
    assert main(["lint", str(bad), "--select", "REP0"]) == 1
    assert "REP001" in capsys.readouterr().out
    assert main(["lint", str(bad), "--select", "REP42-REP99"]) == 2
    assert "unknown lint rule id(s)" in capsys.readouterr().err


def test_lint_explain_prints_the_rule_docstring(capsys):
    assert main(["lint", "--explain", "REP009"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("REP009:")
    assert "run_in_executor" in out
    assert main(["lint", "--explain", "REP000"]) == 0
    assert "unused suppression" in capsys.readouterr().out
    assert main(["lint", "--explain", "REP999"]) == 2
    assert "unknown lint rule id(s)" in capsys.readouterr().err


def test_lint_sarif_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    assert main(["lint", str(bad), "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"][0]["ruleId"] == "REP001"


def test_lint_cache_is_transparent(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    cache = tmp_path / "cache.json"
    assert main(["lint", str(bad), "--format", "json",
                 "--cache", str(cache)]) == 1
    cold = capsys.readouterr().out
    assert cache.exists()
    assert main(["lint", str(bad), "--format", "json",
                 "--cache", str(cache)]) == 1
    captured = capsys.readouterr()
    assert captured.out == cold
    assert "1 cached" in captured.err


def test_lint_write_baseline_then_clean_run(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(bad), "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    assert "wrote 1 baseline finding(s)" in capsys.readouterr().err
    assert main(["lint", str(bad), "--baseline", str(baseline)]) == 0
    captured = capsys.readouterr()
    assert "0 finding(s)" in captured.out
    assert "1 baselined" in captured.err


# ----------------------------------------------------------------------
# repro run --sanitize


def test_run_sanitize_clean_backend_exits_0(dat, tmp_path, capsys):
    out = tmp_path / "out.fa"
    code = main(["run", dat, "21", str(out), "--backend", "cuda",
                 "--sanitize", "all"])
    assert code == 0
    assert "sanitizer: 0 findings" in capsys.readouterr().out


@pytest.fixture
def mutant_cuda(monkeypatch):
    """The CUDA port with every seeded bug installed (:mod:`.mutants`)."""
    monkeypatch.setattr(CudaLocalAssemblyKernel, "construct_cls",
                        MutantConstructPhase)
    monkeypatch.setattr(CudaLocalAssemblyKernel, "walk_cls", MutantWalkPhase)


def test_run_sanitize_buggy_backend_exits_1(dat, tmp_path, capsys,
                                            mutant_cuda):
    out = tmp_path / "out.fa"
    code = main(["run", dat, "21", str(out), "--backend", "cuda",
                 "--sanitize", "all"])
    assert code == 1
    stdout = capsys.readouterr().out
    for checker in ("racecheck", "synccheck", "initcheck"):
        assert checker in stdout


def test_run_sanitize_single_check(dat, tmp_path, capsys, mutant_cuda):
    out = tmp_path / "out.fa"
    code = main(["run", dat, "21", str(out), "--backend", "cuda",
                 "--sanitize", "initcheck"])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "initcheck" in stdout
    assert "racecheck" not in stdout


def test_run_sanitize_rejects_scalar(dat, tmp_path):
    out = tmp_path / "out.fa"
    code = main(["run", dat, "21", str(out), "--backend", "scalar",
                 "--sanitize", "all"])
    assert code == 2


def test_run_sanitize_rejects_unknown_check(dat, tmp_path):
    out = tmp_path / "out.fa"
    code = main(["run", dat, "21", str(out), "--backend", "cuda",
                 "--sanitize", "bogus"])
    assert code == 2
