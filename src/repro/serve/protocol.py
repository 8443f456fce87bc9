"""Wire protocol of the coalescing assembly service.

A job submission is a JSON object::

    {
      "dat": "<.dat format text>",          # contigs + reads (required)
      "k_schedule": [21, 33, 55, 77],       # optional, validated
      "device": "A100",                     # optional, default A100
      "backend": "auto",                    # optional: auto|cuda|hip|sycl
      "overflow_policy": "drop-contig",     # optional, default drop-contig
      "deadline_s": 10.0                    # optional latency budget
    }

Everything except the payload and the deadline forms the job's
**coalescing key**: only
jobs whose execution configuration matches byte-for-byte may share a
fused launch wave (they must agree on the kernel that runs them). The
**fingerprint** additionally hashes the payload and is the job's
checkpoint/resume identity — resubmitting the exact same request hits
the checkpoint store instead of recomputing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum

from repro.errors import DatasetError, ReproError
from repro.genomics.contig import Contig
from repro.genomics.io import loads_dat
from repro.kernels import WAVE_BACKENDS
from repro.kernels.engine import validate_k_schedule
from repro.resilience.checkpoint import profile_to_dict, result_to_dict
from repro.resilience.policy import OverflowPolicy
from repro.simt.device import device_by_name

DEFAULT_K_SCHEDULE = (21, 33, 55, 77)


class JobStatus(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class ProtocolError(ReproError):
    """Malformed job submission (maps to HTTP 400)."""


@dataclass(frozen=True)
class JobOptions:
    """The execution configuration shared by every job of a wave."""

    device: str = "A100"
    backend: str = "auto"
    k_schedule: tuple[int, ...] = DEFAULT_K_SCHEDULE
    overflow_policy: str = "drop-contig"

    @property
    def coalescing_key(self) -> tuple:
        return (self.device, self.backend, self.k_schedule,
                self.overflow_policy)

    def to_dict(self) -> dict:
        return {"device": self.device, "backend": self.backend,
                "k_schedule": list(self.k_schedule),
                "overflow_policy": self.overflow_policy}

    @classmethod
    def from_dict(cls, data: dict) -> JobOptions:
        return cls(device=data["device"], backend=data["backend"],
                   k_schedule=tuple(data["k_schedule"]),
                   overflow_policy=data["overflow_policy"])


@dataclass
class JobSpec:
    """One parsed, validated submission.

    ``deadline_s`` is the client's per-job latency budget; the wave
    supervisor derives each fused wave's timeout from the tightest
    budget aboard. It is deliberately *not* part of
    :class:`JobOptions`: deadlines affect scheduling, not execution, so
    they must change neither the coalescing key (jobs with different
    budgets may still fuse) nor the fingerprint (a resubmission with a
    different budget still resumes from its checkpoint).
    """

    job_id: str
    dat: str
    n_contigs: int
    options: JobOptions
    fingerprint: str
    deadline_s: float | None = None


def spec_to_dict(spec: JobSpec) -> dict:
    """The job record: a :class:`JobSpec` as the journal stores it and
    a wave carries it across the executor boundary."""
    return {"job_id": spec.job_id, "dat": spec.dat,
            "n_contigs": spec.n_contigs, "options": spec.options.to_dict(),
            "fingerprint": spec.fingerprint, "deadline_s": spec.deadline_s}


def spec_from_dict(record: dict) -> JobSpec:
    """Inverse of :func:`spec_to_dict`; a record missing a field or
    carrying a wrongly typed one raises :class:`ProtocolError`."""
    try:
        return JobSpec(job_id=record["job_id"], dat=record["dat"],
                       n_contigs=int(record["n_contigs"]),
                       options=JobOptions.from_dict(record["options"]),
                       fingerprint=record["fingerprint"],
                       deadline_s=record["deadline_s"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"damaged job record: {exc!r}") from None


def parse_job_request(body: dict, job_id: str) -> JobSpec:
    """Validate a submission body into a :class:`JobSpec`.

    Raises :class:`ProtocolError` for anything malformed — including an
    empty contig list, which the engine cannot run (and which a fused
    wave could otherwise silently misattribute).
    """
    if not isinstance(body, dict):
        raise ProtocolError("job body must be a JSON object")
    dat = body.get("dat")
    if not isinstance(dat, str) or not dat:
        raise ProtocolError("job body needs a non-empty 'dat' string")
    try:
        contigs = loads_dat(dat, source=f"job {job_id}")
    except DatasetError as exc:
        raise ProtocolError(f"bad .dat payload: {exc}") from None
    if not contigs:
        raise ProtocolError("job payload contains no contigs")
    ks = body.get("k_schedule", list(DEFAULT_K_SCHEDULE))
    device = body.get("device", "A100")
    # int() would run k = 21.9 as 21, and any error but ProtocolError
    # leaves the client without a response
    if not isinstance(ks, list) or any(type(k) is not int for k in ks):
        raise ProtocolError(f"bad k_schedule: want a list of integers, "
                            f"got {ks!r}")
    if not isinstance(device, str):
        raise ProtocolError(f"device must be a string, got {device!r}")
    try:
        ks = tuple(ks)
        validate_k_schedule(ks)
    except ReproError as exc:
        raise ProtocolError(f"bad k_schedule: {exc}") from None
    try:
        device_by_name(device)
    except ReproError as exc:
        raise ProtocolError(str(exc)) from None
    backend = body.get("backend", "auto")
    if backend not in WAVE_BACKENDS:
        raise ProtocolError(
            f"backend must be one of {WAVE_BACKENDS}, got {backend!r}")
    try:
        policy = OverflowPolicy.parse(
            body.get("overflow_policy", "drop-contig"))
    except (ReproError, ValueError) as exc:
        raise ProtocolError(f"bad overflow_policy: {exc}") from None
    deadline_s = body.get("deadline_s")
    if deadline_s is not None:
        try:
            deadline_s = float(deadline_s)
        except (TypeError, ValueError):
            raise ProtocolError("deadline_s must be a number") from None
        if not deadline_s > 0:
            raise ProtocolError(
                f"deadline_s must be > 0, got {deadline_s}")
    options = JobOptions(device=device, backend=backend, k_schedule=ks,
                         overflow_policy=policy.value)
    return JobSpec(job_id=job_id, dat=dat, n_contigs=len(contigs),
                   options=options,
                   fingerprint=job_fingerprint(dat, options),
                   deadline_s=deadline_s)


def job_fingerprint(dat: str, options: JobOptions) -> str:
    """Stable identity of (payload, execution configuration)."""
    h = hashlib.sha256()
    h.update(json.dumps(options.to_dict(), sort_keys=True).encode())
    h.update(b"\x00")
    h.update(dat.encode())
    return h.hexdigest()[:32]


def parse_contigs(spec_dat: str, job_id: str) -> list[Contig]:
    """Re-parse a validated spec's payload (worker side)."""
    return loads_dat(spec_dat, source=f"job {job_id}")


def result_to_payload(result) -> dict:
    """JSON-able success payload for one job (the poll/result body)."""
    return {"ok": True, "result": result_to_dict(result)}


def error_to_payload(error: Exception) -> dict:
    """JSON-able failure payload (overflow under the raise policy)."""
    payload: dict = {"ok": False, "error": str(error),
                     "error_type": type(error).__name__}
    for attr in ("contig_id", "k", "capacity", "probes"):
        value = getattr(error, attr, None)
        if value is not None:
            payload[attr] = value
    return payload


__all__ = [
    "DEFAULT_K_SCHEDULE",
    "JobOptions",
    "JobSpec",
    "JobStatus",
    "ProtocolError",
    "error_to_payload",
    "job_fingerprint",
    "parse_contigs",
    "parse_job_request",
    "profile_to_dict",
    "result_to_payload",
    "spec_from_dict",
    "spec_to_dict",
]
