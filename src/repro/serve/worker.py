"""Wave execution: the synchronous half of the assembly service.

One wave — N jobs sharing a coalescing key — runs here, off the event
loop, via :func:`repro.kernels.engine.run_schedule_coalesced`. The
module holds **no state between waves**, so running the same wave
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
from repro.kernels.engine import resolve_backend, run_schedule_coalesced
from repro.serve.protocol import error_to_payload, parse_contigs, \
    result_to_payload, spec_from_dict
from repro.simt.device import device_by_name


def run_wave(wave: dict) -> list[dict]:
    """Execute one fused wave; returns one payload dict per job, aligned.

    ``wave`` is ``{"jobs": [...]}``, one :func:`spec_to_dict` record per
    job; they share a coalescing key, so the first job's options
    configure the kernel. A job-level failure (overflow under the raise
    policy) yields an error payload in that job's slot; a wave-level
    failure raises, and the service fails every job of the wave with it.
    """
    jobs = [spec_from_dict(record) for record in wave["jobs"]]
    if not jobs:
        raise ReproError("run_wave needs at least one job")
    options = jobs[0].options
    kernel = resolve_backend(options.backend, device_by_name(options.device),
                             policy=PRODUCTION_POLICY,
                             overflow_policy=options.overflow_policy)
    outcomes = run_schedule_coalesced(
        kernel, [parse_contigs(j.dat, j.job_id) for j in jobs],
        options.k_schedule, fingerprints=[j.fingerprint for j in jobs])
    return [error_to_payload(outcome.error) if outcome.error is not None
            else result_to_payload(outcome.result)
            for outcome in outcomes]


__all__ = ["run_wave"]
