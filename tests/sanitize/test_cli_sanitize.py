"""CLI wiring: ``repro run --sanitize`` exit codes."""

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
