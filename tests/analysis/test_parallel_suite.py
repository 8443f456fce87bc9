"""Process-parallel ``run_all``: byte parity with serial, crash/resume.

The tentpole guarantee: ``run_all(workers=N)`` is an *execution*
strategy, not a semantic one — every exported artifact is byte-identical
to the serial sweep, including when a mid-flight crash forces a
checkpoint resume. The same holds for running a k's three ports as one
shared k-run, and for splitting it by what is checkpointed.
"""

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import ExperimentConfig, ExperimentSuite
from repro.analysis.export import export_all
from repro.errors import ReproError
from repro.resilience import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
)
from repro.core.extension import PRODUCTION_POLICY
from repro.kernels import backend_for_device
from repro.simt.device import A100, PLATFORMS

#: Tiny but real: 3 devices x 1 k = 3 grid cells.
CFG = dict(scale=0.004, seed=7, k_values=(21,))


def _export_bytes(suite: ExperimentSuite, out_dir) -> dict[str, bytes]:
    export_all(suite, out_dir)
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.fixture(scope="module")
def serial_export(tmp_path_factory):
    out = tmp_path_factory.mktemp("serial")
    return _export_bytes(ExperimentSuite(ExperimentConfig(**CFG)), out)


class TestParity:
    def test_parallel_export_byte_identical(self, tmp_path, serial_export):
        suite = ExperimentSuite(ExperimentConfig(**CFG, workers=4))
        parallel = _export_bytes(suite, tmp_path / "parallel")
        assert parallel.keys() == serial_export.keys()
        for name, blob in serial_export.items():
            assert parallel[name] == blob, f"{name} differs from serial"
        assert not any(r.from_checkpoint for r in suite._runs.values())

    def test_explicit_workers_arg_overrides_config(self, serial_export,
                                                   tmp_path):
        suite = ExperimentSuite(ExperimentConfig(**CFG))  # workers=1 config
        suite.run_all(workers=2)
        parallel = _export_bytes(suite, tmp_path / "arg")
        assert parallel == serial_export

    def test_rejects_bad_workers(self):
        with pytest.raises(ReproError, match="workers must be positive"):
            ExperimentSuite(ExperimentConfig(**CFG)).run_all(workers=0)


class TestPerK:
    def test_resuming_a_k_with_one_port_checkpointed(
            self, tmp_path, serial_export, monkeypatch):
        ckpt = tmp_path / "ckpt"
        ExperimentSuite(ExperimentConfig(
            **CFG, checkpoint_dir=str(ckpt))).run(A100, 21)
        calls = []

        def spy(kernels, *args, **kw):
            calls.append([kern.device.name for kern in kernels])
            return real(kernels, *args, **kw)

        real = experiments.run_ports
        monkeypatch.setattr(experiments, "run_ports", spy)
        resumed = ExperimentSuite(ExperimentConfig(
            **CFG, checkpoint_dir=str(ckpt)))
        assert _export_bytes(resumed, tmp_path / "out") == serial_export
        assert calls == [["MI250X", "MAX1550"]]   # one shared k-run
        assert {key: rec.from_checkpoint
                for key, rec in resumed._runs.items()} == {
            ("A100", 21): True, ("MI250X", 21): False,
            ("MAX1550", 21): False}

    def test_workers_shard_by_k(self, tmp_path):
        cfg = dict(CFG, k_values=(21, 33))
        serial = _export_bytes(ExperimentSuite(ExperimentConfig(**cfg)),
                               tmp_path / "serial")
        parallel = _export_bytes(
            ExperimentSuite(ExperimentConfig(**cfg, workers=2)),
            tmp_path / "parallel")
        assert parallel == serial

    def test_a_fault_injector_runs_cell_by_cell_in_grid_order(self):
        """Its run and launch ordinals number what they did when every
        cell ran alone, device by device: a fault aimed at the first
        launch of the second cell, (A100, 33), hits exactly that."""
        cfg = dict(CFG, k_values=(21, 33), overflow_policy="drop-contig")
        suite = ExperimentSuite(ExperimentConfig(**cfg))

        def alone(device, k, injector):
            injector.before_run(device.name, k)
            return backend_for_device(
                device, policy=PRODUCTION_POLICY,
                overflow_policy="drop-contig", fault_injector=injector,
            ).run(suite.dataset(k), k, parallel_scale=CFG["scale"])

        counter = FaultInjector(FaultPlan())
        alone(A100, 21, counter)

        def injector():
            return FaultInjector(FaultPlan(faults=(FaultSpec(
                FaultKind.TABLE_PRESSURE, launch=counter._launch_ordinal,
                warps=(0, 1), capacity=2),)))

        suite.config.fault_injector = injector()
        suite.run_all()
        ref = injector()
        for device in PLATFORMS:
            for k in cfg["k_values"]:
                assert suite.run(device, k).result == alone(device, k, ref)
        assert ref.fired == suite.config.fault_injector.fired
        assert suite.run(A100, 33).result.degraded


@pytest.mark.resilience
class TestCrashResume:
    def test_mid_flight_crash_then_resume_byte_identical(
            self, tmp_path, serial_export):
        ckpt = tmp_path / "ckpt"
        # ordinal-targeted specs are racy across processes; device/k
        # targeting pins the crash to exactly one grid cell
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.SUITE_CRASH, device="MI250X", k=21),
        )))
        crashed = ExperimentSuite(ExperimentConfig(
            **CFG, checkpoint_dir=str(ckpt), fault_injector=inj, workers=2))
        with pytest.raises(InjectedCrashError):
            crashed.run_all()
        done = crashed.checkpoint_store().completed()
        assert ("MI250X", 21) not in done
        assert not list(ckpt.glob("*.tmp"))  # no scratch leaks from the crash

        resumed = ExperimentSuite(ExperimentConfig(
            **CFG, checkpoint_dir=str(ckpt), workers=2))
        exported = _export_bytes(resumed, tmp_path / "resumed")
        assert exported == serial_export
        flags = {key: rec.from_checkpoint
                 for key, rec in resumed._runs.items()}
        assert flags[("MI250X", 21)] is False  # re-executed after the crash
        assert sum(flags.values()) == len(done)  # the rest came from disk
        summary = resumed.resilience_summary()
        assert sum(r["from_checkpoint"] for r in summary) == len(done)

    def test_parallel_run_checkpoints_resumable_serially(
            self, tmp_path, serial_export):
        ckpt = tmp_path / "ckpt2"
        ExperimentSuite(ExperimentConfig(
            **CFG, checkpoint_dir=str(ckpt), workers=2)).run_all()
        # a serial suite resumes everything the parallel workers wrote
        resumed = ExperimentSuite(ExperimentConfig(
            **CFG, checkpoint_dir=str(ckpt)))
        exported = _export_bytes(resumed, tmp_path / "serial_resume")
        assert exported == serial_export
        assert all(r.from_checkpoint for r in resumed._runs.values())


class TestCli:
    def test_export_workers_flag(self, tmp_path, serial_export):
        from repro.cli import main

        rc = main(["export", str(tmp_path / "out"), "--scale", "0.004",
                   "--seed", "7", "--workers", "2"])
        assert rc == 0
        # CLI runs the full k schedule; just spot-check it produced output
        assert (tmp_path / "out" / "summary.json").exists()
