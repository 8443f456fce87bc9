"""CheckpointStore round-trips, validation, and suite crash/resume."""

import dataclasses
import json

import pytest

from repro.analysis.experiments import ExperimentConfig, ExperimentSuite
from repro.errors import CheckpointError
from repro.resilience import (
    CheckpointStore,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    payload_crc,
    profile_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.simt.device import A100, PLATFORMS

from .conftest import K, SCALE, SEED

pytestmark = pytest.mark.resilience

CFG = dict(scale=SCALE, seed=SEED, k_values=(K,))


class TestRoundTrip:
    def test_result_survives_store(self, tmp_path, clean_run):
        store = CheckpointStore(tmp_path, meta={"scale": SCALE})
        store.save("A100", K, clean_run, clean_run.profile)
        result, full = store.load(A100, K)
        assert result_to_dict(result) == result_to_dict(clean_run)
        assert profile_to_dict(full) == profile_to_dict(clean_run.profile)
        assert store.completed() == {("A100", K)}

    def test_degraded_and_retried_persist(self, tmp_path, clean_run):
        marked = dataclasses.replace(clean_run, degraded=[3], retried=[5, 9])
        store = CheckpointStore(tmp_path)
        store.save("A100", K, marked, marked.profile)
        result, _ = store.load(A100, K)
        assert result.degraded == [3] and result.retried == [5, 9]

    def test_missing_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load(A100, K) is None

    def test_clear(self, tmp_path, clean_run):
        store = CheckpointStore(tmp_path)
        store.save("A100", K, clean_run, clean_run.profile)
        store.clear()
        assert store.completed() == set()


class TestValidation:
    def test_meta_mismatch_rejected(self, tmp_path, clean_run):
        CheckpointStore(tmp_path, meta={"scale": 0.004}).save(
            "A100", K, clean_run, clean_run.profile)
        other = CheckpointStore(tmp_path, meta={"scale": 0.02})
        with pytest.raises(CheckpointError, match="different configuration"):
            other.load(A100, K)

    def test_corrupt_file_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.path_for("A100", K)
        path.write_text("{not json")
        assert store.load(A100, K) is None
        assert not path.exists()
        assert [p.suffix for p in store.quarantined] == [".quarantine"]
        assert store.quarantined[0].exists()

    def test_non_utf8_file_is_damage_not_a_crash(self, tmp_path):
        # bit rot need not leave valid UTF-8 behind: same policies as
        # any other unparseable file (skip in the survey, quarantine on
        # load), never a UnicodeDecodeError
        store = CheckpointStore(tmp_path)
        path = store.path_for("A100", K)
        path.write_bytes(b'\xff\xfe{"k": 21}')
        assert store.completed() == set() and path.exists()
        assert store.load(A100, K) is None
        assert not path.exists() and len(store.quarantined) == 1

    def test_crc_mismatch_quarantined(self, tmp_path, clean_run):
        store = CheckpointStore(tmp_path)
        path = store.save("A100", K, clean_run, clean_run.profile)
        payload = json.loads(path.read_text())
        payload["result"]["wall_time_s"] = 123.0  # bit-flip, stale CRC
        path.write_text(json.dumps(payload))
        assert store.load(A100, K) is None
        assert not path.exists() and len(store.quarantined) == 1

    def test_format_drift_rejected(self, tmp_path, clean_run):
        store = CheckpointStore(tmp_path)
        path = store.save("A100", K, clean_run, clean_run.profile)
        payload = json.loads(path.read_text())
        payload["format"] = 999
        payload["crc"] = payload_crc(payload)  # drift, not corruption
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="format"):
            store.load(A100, K)

    def test_wrong_device_rejected(self, clean_run):
        data = result_to_dict(clean_run)
        with pytest.raises(CheckpointError, match="does not match"):
            result_from_dict(data, PLATFORMS[1])

    def test_completed_skips_mismatched_fingerprint(self, tmp_path, clean_run):
        CheckpointStore(tmp_path, meta={"scale": 0.004}).save(
            "A100", K, clean_run, clean_run.profile)
        other = CheckpointStore(tmp_path, meta={"scale": 0.02})
        assert other.completed() == set()
        same = CheckpointStore(tmp_path, meta={"scale": 0.004})
        assert same.completed() == {("A100", K)}

    def test_completed_skips_format_drift(self, tmp_path, clean_run):
        store = CheckpointStore(tmp_path)
        path = store.save("A100", K, clean_run, clean_run.profile)
        payload = json.loads(path.read_text())
        payload["format"] = 999
        path.write_text(json.dumps(payload))
        assert store.completed() == set()

    def test_completed_skips_unparseable_json(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path_for("A100", K).write_text("{not json")
        (store.directory / "list.json").write_text("[1, 2]")
        assert store.completed() == set()


class TestGenericPayloads:
    """save_payload/load_payload: the generic framing used by the
    assembler pipeline's stage checkpoints."""

    DATA = {"spectrum": {"fingerprints": [1, 2, 3], "counts": [4, 5, 6]},
            "note": "stage payload"}

    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path, meta={"pipeline": 1})
        store.save_payload("stage_kmers", 21, self.DATA)
        assert store.load_payload("stage_kmers", 21) == self.DATA

    def test_missing_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load_payload("stage_kmers", 21) is None

    def test_keyed_by_name_and_k(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_payload("stage_kmers", 21, {"a": 1})
        store.save_payload("stage_kmers", 33, {"a": 2})
        store.save_payload("stage_merge", 21, {"a": 3})
        assert store.load_payload("stage_kmers", 21) == {"a": 1}
        assert store.load_payload("stage_kmers", 33) == {"a": 2}
        assert store.load_payload("stage_merge", 21) == {"a": 3}

    def test_meta_mismatch_rejected(self, tmp_path):
        CheckpointStore(tmp_path, meta={"reads": "abc"}).save_payload(
            "stage_kmers", 21, self.DATA)
        other = CheckpointStore(tmp_path, meta={"reads": "xyz"})
        with pytest.raises(CheckpointError, match="different configuration"):
            other.load_payload("stage_kmers", 21)

    def test_crc_mismatch_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save_payload("stage_kmers", 21, self.DATA)
        payload = json.loads(path.read_text())
        payload["data"]["note"] = "tampered"  # stale CRC
        path.write_text(json.dumps(payload))
        assert store.load_payload("stage_kmers", 21) is None
        assert not path.exists() and len(store.quarantined) == 1

    def test_missing_data_section_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save_payload("stage_kmers", 21, self.DATA)
        payload = json.loads(path.read_text())
        del payload["data"]
        payload["crc"] = payload_crc(payload)  # valid frame, no payload
        path.write_text(json.dumps(payload))
        assert store.load_payload("stage_kmers", 21) is None
        assert len(store.quarantined) == 1


class TestSuiteResume:
    def test_crash_then_resume_matches_uninterrupted(self, tmp_path):
        reference = ExperimentSuite(ExperimentConfig(**CFG))
        reference.run_all()

        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.SUITE_CRASH, run=1),
        )))
        crashed = ExperimentSuite(ExperimentConfig(
            **CFG, checkpoint_dir=str(tmp_path), fault_injector=inj))
        with pytest.raises(InjectedCrashError):
            crashed.run_all()
        done = crashed.checkpoint_store().completed()
        assert len(done) == 1  # exactly the runs before the crash

        resumed = ExperimentSuite(ExperimentConfig(
            **CFG, checkpoint_dir=str(tmp_path)))
        resumed.run_all()
        assert resumed._runs.keys() == reference._runs.keys()
        for key, ref_rec in reference._runs.items():
            got = resumed._runs[key]
            assert result_to_dict(got.result) == result_to_dict(ref_rec.result)
            assert profile_to_dict(got.full_profile) == \
                profile_to_dict(ref_rec.full_profile)
        n_resumed = sum(r["from_checkpoint"]
                        for r in resumed.resilience_summary())
        assert n_resumed == 1

    def test_transient_failure_retried_in_place(self):
        sleeps = []
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.SUITE_CRASH, run=0, transient=True),
        )))
        suite = ExperimentSuite(ExperimentConfig(
            **CFG, fault_injector=inj, retry_sleep=sleeps.append))
        suite.run(PLATFORMS[0], K)
        assert sleeps == [suite.config.retry_backoff]
        assert inj.counts() == {"suite-crash": 1}

    def test_fatal_crash_not_retried(self):
        sleeps = []
        inj = FaultInjector(FaultPlan(faults=(
            FaultSpec(FaultKind.SUITE_CRASH, run=0),
        )))
        suite = ExperimentSuite(ExperimentConfig(
            **CFG, fault_injector=inj, retry_sleep=sleeps.append))
        with pytest.raises(InjectedCrashError):
            suite.run(PLATFORMS[0], K)
        assert sleeps == []
