"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.genomics.io import read_fasta


class TestGenerate:
    def test_generate_writes_dat(self, tmp_path, capsys):
        out = tmp_path / "d.dat"
        rc = main(["generate", "21", str(out), "--scale", "0.001"])
        assert rc == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generate_rejects_bad_k(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "42", str(tmp_path / "x.dat")])


class TestRun:
    def test_run_assembles_dat(self, tmp_path, capsys):
        dat = tmp_path / "in.dat"
        fasta = tmp_path / "out.fa"
        assert main(["generate", "21", str(dat), "--scale", "0.001"]) == 0
        rc = main(["run", str(dat), "21", str(fasta)])
        assert rc == 0
        records = read_fasta(fasta)
        assert records
        # extended sequences carry the walk states in their headers
        assert all("right=" in name and "left=" in name for name, _ in records)

    def test_run_on_other_device(self, tmp_path):
        dat = tmp_path / "in.dat"
        main(["generate", "33", str(dat), "--scale", "0.001"])
        assert main(["run", str(dat), "33", str(tmp_path / "o.fa"),
                     "--device", "MI250X"]) == 0

    def test_run_with_trace_memory_model(self, tmp_path, capsys):
        dat = tmp_path / "in.dat"
        main(["generate", "21", str(dat), "--scale", "0.001"])
        capsys.readouterr()
        rc = main(["run", str(dat), "21", str(tmp_path / "o.fa"),
                   "--memory-model", "trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exact replay:" in out
        assert "L2 hit rate" in out and "l2_churn" in out

    def test_scalar_backend_rejects_trace_model(self, tmp_path, capsys):
        dat = tmp_path / "in.dat"
        main(["generate", "21", str(dat), "--scale", "0.001"])
        rc = main(["run", str(dat), "21", str(tmp_path / "o.fa"),
                   "--backend", "scalar", "--memory-model", "trace"])
        assert rc == 2
        assert "scalar" in capsys.readouterr().err


class TestExperiment:
    def test_static_tables(self, capsys):
        assert main(["experiment", "table5"]) == 0
        out = capsys.readouterr().out
        assert "635" in out  # INTOP1 at k=77

    def test_table6(self, capsys):
        assert main(["experiment", "table6"]) == 0
        assert "4.831" in capsys.readouterr().out

    def test_measured_figure(self, capsys):
        assert main(["experiment", "fig5", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "MI250X" in out and "MAX1550" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "figure99"]) == 2


class TestBoundaryInputs:
    """A bad input at the command line ends in a one-line error, never a
    traceback."""

    @pytest.mark.parametrize("content", [None, "{not json", '{"faults": 5}',
                                         '{"seed": "abc"}'],
                             ids=["missing", "not-json", "faults-not-a-list",
                                  "seed-not-an-int"])
    def test_bad_fault_plan(self, tmp_path, capsys, content):
        plan = tmp_path / "plan.json"
        if content is not None:
            plan.write_text(content)
        rc = main(["serve", "--port", "0", "--fault-plan", str(plan)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(plan) in err

    def test_non_integer_k_schedule(self, capsys):
        rc = main(["assemble", "--scenario", "single_genome",
                   "--k-schedule", "21,x"])
        assert rc == 2
        assert "--k-schedule" in capsys.readouterr().err
