"""Wave execution: the synchronous half of the assembly service.

One wave — N jobs sharing a coalescing key — runs here, off the event
loop, via :func:`repro.kernels.engine.run_schedule_coalesced`. The
module holds **no state between waves**: every job gets a fresh
:class:`~repro.kernels.engine.PrepareCache` for its own k-schedule,
exactly as a solo ``run_schedule`` would, so running the same wave
twice (a retry, a bisection half, a ``--recover`` re-dispatch) yields
the same payloads — the invariant the supervisor's re-runs rest on —
and a long-lived server retains nothing per request.

Everything crossing the executor boundary is plain JSON-able data
(waves in, payload dicts out), so the same function serves both the
in-thread executor (``workers <= 1``) and a ``ProcessPoolExecutor``
(waves pickled to worker processes).
"""

from __future__ import annotations

from repro.core.extension import PRODUCTION_POLICY
from repro.errors import ReproError
from repro.kernels import backend_for_device, create_backend
from repro.kernels.engine import run_schedule_coalesced
from repro.serve.protocol import (
    JobOptions,
    error_to_payload,
    parse_contigs,
    result_to_payload,
)
from repro.simt.device import device_by_name


def _build_kernel(options: JobOptions):
    device = device_by_name(options.device)
    kw = {"policy": PRODUCTION_POLICY,
          "overflow_policy": options.overflow_policy}
    if options.backend == "auto":
        return backend_for_device(device, **kw)
    return create_backend(options.backend, device=device, **kw)


def run_wave(wave: dict) -> list[dict]:
    """Execute one fused wave; returns one payload dict per job, aligned.

    ``wave`` is ``{"options": {...}, "jobs": [{"job_id", "dat",
    "fingerprint"}, ...]}`` as built by the service's dispatch path. A
    job-level failure (overflow under the raise policy) yields an error
    payload in that job's slot; co-tenant jobs are unaffected. A
    wave-level failure (bad backend name and the like) raises — the
    service fails every job of the wave with it.
    """
    options = JobOptions(
        device=wave["options"]["device"],
        backend=wave["options"]["backend"],
        k_schedule=tuple(wave["options"]["k_schedule"]),
        overflow_policy=wave["options"]["overflow_policy"],
    )
    jobs = wave["jobs"]
    if not jobs:
        raise ReproError("run_wave needs at least one job")
    kernel = _build_kernel(options)
    contigs = [parse_contigs(j["dat"], j["job_id"]) for j in jobs]
    outcomes = run_schedule_coalesced(
        kernel, contigs, options.k_schedule,
        fingerprints=[j["fingerprint"] for j in jobs])
    payloads: list[dict] = []
    for outcome in outcomes:
        if outcome.error is not None:
            payloads.append(error_to_payload(outcome.error))
        else:
            payloads.append(result_to_payload(
                outcome.result, replay=outcome.replay,
                sanitizer_report=outcome.sanitizer_report))
    return payloads


__all__ = ["run_wave"]
