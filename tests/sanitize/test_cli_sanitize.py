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


def test_lint_select_rejects_ranges_and_prefixes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    for item in ("REP001-REP003", "REP0"):
        assert main(["lint", str(bad), "--select", item]) == 2
        assert "unknown lint rule id(s)" in capsys.readouterr().err


def test_lint_explain_prints_the_rule_docstring(capsys):
    assert main(["lint", "--explain", "REP007"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("REP007:")
    assert "run_in_executor" in out
    assert main(["lint", "--explain", "REP000"]) == 0
    assert "unused suppression" in capsys.readouterr().out
    assert main(["lint", "--explain", "REP999"]) == 2
    assert "unknown lint rule id(s)" in capsys.readouterr().err


def test_lint_unparsable_file_is_an_error_not_a_finding(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    assert main(["lint", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {bad}: ") and "(line 1)" in line


def test_lint_missing_path_is_an_error_not_a_finding(tmp_path, capsys):
    missing = tmp_path / "missing.py"
    assert main(["lint", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {missing}: No such file or directory"]


@pytest.mark.parametrize("removed", [
    ["--cache", "cache.json"], ["--baseline", "baseline.json"],
    ["--write-baseline"], ["--format", "sarif"]],
    ids=["cache", "baseline", "write-baseline", "sarif"])
def test_lint_rejects_removed_options(removed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lint", "src", *removed])
    assert exc.value.code == 2


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
