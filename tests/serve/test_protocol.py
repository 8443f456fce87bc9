"""Wire-protocol parsing and validation of the assembly service."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.genomics.io import dumps_dat
from repro.genomics.simulate import ErrorProfile, ScenarioSpec, simulate_batch
from repro.serve.protocol import (
    DEFAULT_K_SCHEDULE,
    JobOptions,
    JobSpec,
    ProtocolError,
    error_to_payload,
    job_fingerprint,
    parse_job_request,
    spec_from_dict,
    spec_to_dict,
)


def make_dat(n_contigs=2, seed=7) -> str:
    spec = ScenarioSpec(contig_length=120, flank_length=50, read_length=70,
                        depth=5, seed_window=40)
    errors = ErrorProfile(error_rate=0.0, lo_quality_fraction=0.0)
    rng = np.random.default_rng(seed)
    return dumps_dat([sc.contig for sc in
                      simulate_batch(n_contigs, spec, rng, errors)])


class TestParseJobRequest:
    def test_minimal_body_uses_defaults(self):
        spec = parse_job_request({"dat": make_dat()}, job_id="j1")
        assert spec.job_id == "j1"
        assert spec.n_contigs == 2
        assert spec.options == JobOptions()
        assert spec.options.k_schedule == DEFAULT_K_SCHEDULE
        assert len(spec.fingerprint) == 32

    def test_full_body_round_trips(self):
        body = {"dat": make_dat(), "k_schedule": [21, 33],
                "device": "MI250X", "backend": "hip",
                "overflow_policy": "grow-retry"}
        spec = parse_job_request(body, job_id="j2")
        assert spec.options.device == "MI250X"
        assert spec.options.backend == "hip"
        assert spec.options.k_schedule == (21, 33)
        assert spec.options.overflow_policy == "grow-retry"

    @pytest.mark.parametrize("body,match", [
        ("not a dict", "JSON object"),
        ({}, "non-empty 'dat'"),
        ({"dat": ""}, "non-empty 'dat'"),
        ({"dat": "garbage"}, "bad .dat payload"),
        ({"dat": "#locassm v1\n0\n"}, "no contigs"),
    ])
    def test_rejects_malformed_payloads(self, body, match):
        with pytest.raises(ProtocolError, match=match):
            parse_job_request(body, job_id="j1")

    def test_rejects_bad_execution_options(self):
        dat = make_dat()
        with pytest.raises(ProtocolError, match="k_schedule"):
            parse_job_request({"dat": dat, "k_schedule": [33, 21]},
                              job_id="j1")
        with pytest.raises(ProtocolError, match="k_schedule"):
            parse_job_request({"dat": dat, "k_schedule": "soon"},
                              job_id="j1")
        with pytest.raises(ProtocolError):
            parse_job_request({"dat": dat, "device": "TPU9000"},
                              job_id="j1")
        with pytest.raises(ProtocolError, match="overflow_policy"):
            parse_job_request({"dat": dat, "overflow_policy": "explode"},
                              job_id="j1")


    @pytest.mark.parametrize("backend", [
        "scalar",        # a backend, but has no launches a wave can fuse
        "buggy-demo",    # not a backend (the sanitizer's mutants are tests)
        "nope",          # not a backend
        "CUDA",          # create_backend folds case; the coalescing key does not
        7,
    ])
    def test_rejects_backends_no_wave_can_run(self, backend):
        with pytest.raises(ProtocolError, match="backend"):
            parse_job_request({"dat": make_dat(), "backend": backend},
                              job_id="j1")

    @pytest.mark.parametrize("backend", ["auto", "cuda", "hip", "sycl"])
    def test_accepts_every_wave_backend(self, backend):
        spec = parse_job_request({"dat": make_dat(), "backend": backend},
                                 job_id="j1")
        assert spec.options.backend == backend


options_strategy = st.builds(
    JobOptions,
    device=st.sampled_from(["A100", "MI250X", "MAX1550"]),
    backend=st.sampled_from(["auto", "cuda", "hip", "sycl"]),
    k_schedule=st.lists(st.integers(1, 127), min_size=1, max_size=4,
                        unique=True).map(lambda ks: tuple(sorted(ks))),
    overflow_policy=st.sampled_from(["raise", "drop-contig", "grow-retry"]))

spec_strategy = st.builds(
    JobSpec,
    job_id=st.integers(1, 10**6).map(lambda n: f"j{n}"),
    dat=st.text(max_size=40),
    n_contigs=st.integers(1, 10**4),
    options=options_strategy,
    fingerprint=st.text("0123456789abcdef", min_size=32, max_size=32),
    deadline_s=st.none() | st.floats(0.001, 1e6))


class TestJobRecord:
    """The one record a job travels as: into the journal, out of a
    replay, and across the executor boundary inside a wave."""

    @given(options_strategy)
    def test_options_round_trip(self, options):
        assert JobOptions.from_dict(options.to_dict()) == options

    @given(spec_strategy)
    def test_spec_round_trips_through_json(self, spec):
        record = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(record) == spec

    def test_record_is_flat_json_with_job_id_on_top(self):
        # the journal addresses records by their top-level "job_id", and
        # the ledger tags a wave by wave["jobs"][i]["job_id"]
        spec = parse_job_request({"dat": make_dat()}, job_id="j9")
        record = spec_to_dict(spec)
        assert record["job_id"] == "j9"
        assert record["options"] == spec.options.to_dict()

    @pytest.mark.parametrize("damage", [
        lambda r: r.pop("fingerprint"),
        lambda r: r.pop("deadline_s"),
        lambda r: r["options"].pop("backend"),
        lambda r: r.update(n_contigs="many"),
        lambda r: r.update(options=None),
    ])
    def test_damaged_record_is_a_typed_error(self, damage):
        record = spec_to_dict(parse_job_request({"dat": make_dat()}, "j1"))
        damage(record)
        with pytest.raises(ProtocolError, match="damaged job record"):
            spec_from_dict(record)


class TestFingerprint:
    def test_depends_on_payload_and_options(self):
        dat_a, dat_b = make_dat(seed=1), make_dat(seed=2)
        opts = JobOptions()
        assert job_fingerprint(dat_a, opts) == job_fingerprint(dat_a, opts)
        assert job_fingerprint(dat_a, opts) != job_fingerprint(dat_b, opts)
        assert (job_fingerprint(dat_a, opts)
                != job_fingerprint(dat_a, JobOptions(k_schedule=(21,))))

    def test_coalescing_key_excludes_payload(self):
        a = parse_job_request({"dat": make_dat(seed=1)}, job_id="j1")
        b = parse_job_request({"dat": make_dat(seed=2)}, job_id="j2")
        assert a.options.coalescing_key == b.options.coalescing_key
        assert a.fingerprint != b.fingerprint


def test_error_payload_carries_overflow_attributes():
    from repro.errors import HashTableFullError

    err = HashTableFullError("table full", contig_id=3, k=21,
                             capacity=64, probes=64)
    payload = error_to_payload(err)
    assert payload["ok"] is False
    assert payload["error_type"] == "HashTableFullError"
    assert (payload["contig_id"], payload["k"],
            payload["capacity"], payload["probes"]) == (3, 21, 64, 64)
