"""CheckpointStore round-trips, validation, and suite crash/resume."""

import collections
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import (
    ExperimentConfig,
    ExperimentSuite,
    RunRecord,
)
from repro.core.extension import DEFAULT_POLICY, PRODUCTION_POLICY, WalkState
from repro.errors import CheckpointError
from repro.kernels.engine import KernelRunResult
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
from repro.simt.counters import KernelProfile
from repro.simt.device import A100, PLATFORMS

from ..codec_keys import assert_reads_every_key
from .conftest import K, SCALE, SEED

pytestmark = pytest.mark.resilience

CFG = dict(scale=SCALE, seed=SEED, k_values=(K,))
DATA = {"spectrum": {"fingerprints": [1, 2, 3], "counts": [4, 5, 6]},
        "note": "stage payload"}


def format_1_payload(name, k, result: dict, meta: dict) -> dict:
    """The frame ``CheckpointStore.save(name, k, result, full_profile)``
    wrote before format 2 (same CRC rule, no ``data`` nesting)."""
    payload = {"format": 1, "meta": meta, "device": name, "k": k,
               "result": result, "full_profile": result["profile"]}
    payload["crc"] = payload_crc(payload)
    return payload


def record(result) -> RunRecord:
    return RunRecord(device=A100, k=K, result=result,
                     full_profile=result.profile)


def load_record(store) -> RunRecord | None:
    data = store.load_named("A100", K)
    return data and RunRecord.from_dict(A100, data, from_checkpoint=True)


class TestRoundTrip:
    def test_result_survives_store(self, tmp_path, clean_run):
        store = CheckpointStore(tmp_path, meta={"scale": SCALE})
        store.save("A100", K, record(clean_run).to_dict())
        got = load_record(store)
        assert got.from_checkpoint and got.device is A100 and got.k == K
        assert result_to_dict(got.result) == result_to_dict(clean_run)
        assert (profile_to_dict(got.full_profile)
                == profile_to_dict(clean_run.profile))
        assert store.completed() == {("A100", K)}

    def test_degraded_and_retried_persist(self, tmp_path, clean_run):
        marked = dataclasses.replace(clean_run, degraded=[3], retried=[5, 9])
        store = CheckpointStore(tmp_path)
        store.save("A100", K, record(marked).to_dict())
        result = load_record(store).result
        assert result.degraded == [3] and result.retried == [5, 9]

    def test_missing_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load_named("A100", K) is None

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("A100", K, DATA)
        store.clear()
        assert store.completed() == set()


profiles = st.builds(KernelProfile, **{
    f.name: (st.integers(0, 2**53) if isinstance(f.default, int)
             else st.floats(0, 1e15, allow_nan=False))
    for f in dataclasses.fields(KernelProfile)})
ends = st.lists(st.tuples(st.text("ACGT", max_size=12),
                          st.sampled_from(WalkState)), max_size=4)
indices = st.lists(st.integers(0, 10**4), unique=True, max_size=4).map(sorted)
results = st.builds(KernelRunResult, device=st.sampled_from(PLATFORMS),
                    k=st.integers(1, 127), profile=profiles, right=ends,
                    left=ends, degraded=indices, retried=indices)


class TestCodecs:
    """``profile_*``, ``_ends_*``, ``result_*`` and ``RunRecord``: what
    a writer emits survives JSON, and its reader reads every key of it
    and no other."""

    @settings(max_examples=40)
    @given(results)
    def test_result_round_trips(self, result):
        data = json.loads(json.dumps(result_to_dict(result)))
        assert result_from_dict(data, result.device) == result
        assert_reads_every_key(
            lambda d: result_from_dict(d, result.device), data)

    @settings(max_examples=20)
    @given(results, profiles)
    def test_run_record_round_trips(self, result, full):
        device = result.device
        rec = RunRecord(device=device, k=result.k, result=result,
                        full_profile=full)
        data = json.loads(json.dumps(rec.to_dict()))
        back = RunRecord.from_dict(device, data, from_checkpoint=True)
        assert (back.k, back.result, back.full_profile) == (result.k,
                                                            result, full)
        assert_reads_every_key(
            lambda d: RunRecord.from_dict(device, d, from_checkpoint=True),
            data)


class TestValidation:
    def test_meta_mismatch_rejected(self, tmp_path):
        CheckpointStore(tmp_path, meta={"scale": 0.004}).save("A100", K, DATA)
        other = CheckpointStore(tmp_path, meta={"scale": 0.02})
        with pytest.raises(CheckpointError, match="different configuration"):
            other.load_named("A100", K)

    def test_corrupt_file_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = tmp_path / f"A100_k{K}.json"
        path.write_text("{not json")
        assert store.load_named("A100", K) is None
        assert not path.exists()
        assert [p.suffix for p in store.quarantined] == [".quarantine"]
        assert store.quarantined[0].exists()

    def test_non_utf8_file_is_damage_not_a_crash(self, tmp_path):
        # bit rot need not leave valid UTF-8 behind: same policies as
        # any other unparseable file (skip in the survey, quarantine on
        # load), never a UnicodeDecodeError
        store = CheckpointStore(tmp_path)
        path = tmp_path / f"A100_k{K}.json"
        path.write_bytes(b'\xff\xfe{"k": 21}')
        assert store.completed() == set() and path.exists()
        assert store.load_named("A100", K) is None
        assert not path.exists() and len(store.quarantined) == 1

    def test_crc_mismatch_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("A100", K, DATA)
        payload = json.loads(path.read_text())
        payload["data"]["note"] = "tampered"  # bit-flip, stale CRC
        path.write_text(json.dumps(payload))
        assert store.load_named("A100", K) is None
        assert not path.exists() and len(store.quarantined) == 1

    def test_format_drift_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("A100", K, DATA)
        payload = json.loads(path.read_text())
        payload["format"] = 999
        payload["crc"] = payload_crc(payload)  # drift, not corruption
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="format"):
            store.load_named("A100", K)

    def test_wrong_device_rejected(self, clean_run):
        data = result_to_dict(clean_run)
        with pytest.raises(CheckpointError, match="does not match"):
            result_from_dict(data, PLATFORMS[1])

    def test_record_missing_a_section_rejected(self, clean_run):
        data = record(clean_run).to_dict()
        del data["full_profile"]
        with pytest.raises(CheckpointError, match="full_profile"):
            RunRecord.from_dict(A100, data, from_checkpoint=True)

    def test_completed_skips_mismatched_fingerprint(self, tmp_path):
        CheckpointStore(tmp_path, meta={"scale": 0.004}).save("A100", K, DATA)
        other = CheckpointStore(tmp_path, meta={"scale": 0.02})
        assert other.completed() == set()
        same = CheckpointStore(tmp_path, meta={"scale": 0.004})
        assert same.completed() == {("A100", K)}

    def test_completed_skips_format_drift(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("A100", K, DATA)
        payload = json.loads(path.read_text())
        payload["format"] = 999
        path.write_text(json.dumps(payload))
        assert store.completed() == set()

    def test_completed_skips_unparseable_json(self, tmp_path):
        store = CheckpointStore(tmp_path)
        (tmp_path / f"A100_k{K}.json").write_text("{not json")
        (store.directory / "list.json").write_text("[1, 2]")
        assert store.completed() == set()


class TestGenericPayloads:
    """``data`` is any JSON dict: the assembler pipeline's stage
    checkpoints and the service's result bodies ride the same frame."""

    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path, meta={"pipeline": 1})
        store.save("stage_kmers", 21, DATA)
        assert store.load_named("stage_kmers", 21) == DATA

    def test_keyed_by_name_and_k(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("stage_kmers", 21, {"a": 1})
        store.save("stage_kmers", 33, {"a": 2})
        store.save("stage_merge", 21, {"a": 3})
        assert store.load_named("stage_kmers", 21) == {"a": 1}
        assert store.load_named("stage_kmers", 33) == {"a": 2}
        assert store.load_named("stage_merge", 21) == {"a": 3}
        assert store.completed() == {("stage_kmers", 21), ("stage_kmers", 33),
                                     ("stage_merge", 21)}

    def test_frame_keys_never_collide_with_the_callers(self, tmp_path):
        store = CheckpointStore(tmp_path, meta={"suite": "x"})
        data = {"format": 1, "meta": {}, "device": "H100", "k": 99,
                "crc": "00000000", "data": {"data": 1}}
        store.save("job-abc", 33, data)
        assert store.load_named("job-abc", 33) == data
        assert store.completed() == {("job-abc", 33)}

    def test_missing_data_section_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("stage_kmers", 21, DATA)
        payload = json.loads(path.read_text())
        del payload["data"]
        payload["crc"] = payload_crc(payload)  # valid frame, no payload
        path.write_text(json.dumps(payload))
        assert store.completed() == set()
        assert store.load_named("stage_kmers", 21) is None
        assert len(store.quarantined) == 1


class TestHostileBytes:
    """ROADMAP 2(c): whatever bytes sit in a checkpoint file, the one
    read entry answers with the saved data, with ``None`` and the file
    quarantined, or with ``CheckpointError`` — never anything else, and
    never with data that differs from what was saved."""

    META = {"suite": "serve"}

    @pytest.fixture()
    def saved(self, tmp_path, clean_run):
        data = json.loads(json.dumps(result_to_dict(clean_run)))
        path = CheckpointStore(tmp_path, meta=self.META).save("job-x", K, data)
        return path, path.read_bytes(), data

    def _load(self, path, blob):
        """``load_named`` over ``blob``: the data, ``None`` (checked to
        be quarantined) or ``"rejected"``."""
        path.write_bytes(blob)
        store = CheckpointStore(path.parent, meta=self.META)
        store.completed()  # the survey reads the same bytes: never raises
        try:
            got = store.load_named("job-x", K)
        except CheckpointError:
            return "rejected"
        if got is None:
            assert not path.exists() and len(store.quarantined) == 1
            store.quarantined[0].unlink()
        return got

    def test_truncated_at_every_offset(self, saved):
        path, blob, data = saved
        assert blob.endswith(b"}\n") and len(blob) > 1000
        for cut in range(len(blob) - 1):
            assert self._load(path, blob[:cut]) is None, cut
        assert self._load(path, blob[:-1]) == data  # only the newline gone
        assert self._load(path, blob) == data

    def test_seeded_bit_flips_and_overwritten_runs(self, saved):
        path, blob, data = saved
        rng = random.Random(2024)
        outcomes = collections.Counter()
        for case in range(600):
            damaged = bytearray(blob)
            at = rng.randrange(len(blob))
            if case % 3:
                damaged[at] ^= 1 << rng.randrange(8)
            else:
                damaged[at:at + 8] = rng.randbytes(8)
            got = self._load(path, bytes(damaged))
            assert got is None or got == "rejected" or got == data, (case, at)
            outcomes["quarantined" if got is None else
                     "rejected" if got == "rejected" else "intact"] += 1
        assert outcomes["quarantined"] > 500, outcomes

    @pytest.mark.parametrize("damage", ["deleted", "renamed"])
    def test_frame_without_a_crc_is_damage(self, saved, damage):
        """Every frame ``save`` writes carries a CRC, so one without it —
        the key lost, or its name hit by a flip — is damaged: its
        ``data`` can no longer be checked, here it was altered too."""
        path, blob, _data = saved
        payload = json.loads(blob)
        crc = payload.pop("crc")
        if damage == "renamed":
            payload["crb"] = crc
        payload["data"]["k"] += 12
        blob = (json.dumps(payload) + "\n").encode()
        path.write_bytes(blob)
        assert CheckpointStore(path.parent, meta=self.META).completed() \
            == set()
        assert self._load(path, blob) is None

    def test_format_1_file_rejected(self, tmp_path, clean_run):
        # what the parent's typed ``save`` wrote: sections at the top level
        store = CheckpointStore(tmp_path, meta=self.META)
        path = tmp_path / f"A100_k{K}.json"
        path.write_text(json.dumps(format_1_payload(
            "A100", K, result_to_dict(clean_run), self.META)) + "\n")
        assert store.completed() == set()
        with pytest.raises(CheckpointError, match="format 1, expected 2"):
            store.load_named("A100", K)
        assert path.exists() and not store.quarantined


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
            assert resumed._runs[key].to_dict() == ref_rec.to_dict()
        n_resumed = sum(r["from_checkpoint"]
                        for r in resumed.resilience_summary())
        assert n_resumed == 1

    def test_a_different_walk_policy_does_not_resume(self, tmp_path):
        """The walk policy changes every extension, so a suite under one
        policy must not restore the records of another."""
        ExperimentSuite(ExperimentConfig(
            **CFG, checkpoint_dir=str(tmp_path),
            policy=PRODUCTION_POLICY)).run(A100, K)
        other = ExperimentSuite(ExperimentConfig(
            **CFG, checkpoint_dir=str(tmp_path), policy=DEFAULT_POLICY))
        with pytest.raises(CheckpointError, match="different configuration"):
            other.run(A100, K)

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
