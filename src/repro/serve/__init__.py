"""The async coalescing assembly service (DESIGN.md decision #15).

Many small local-assembly requests fuse into one megabatch launch wave:
a job that finds a wave lane idle launches at once, and jobs arriving
while every lane is busy — until one frees or a warps-per-wave
high-water mark is hit — are concatenated into a single multi-tenant
launch per execution configuration, run through the vectorized engine
once via :func:`repro.kernels.engine.run_schedule_coalesced`, and
scattered back per job with byte-exact provenance (profiles, overflow
sets, sanitizer verdicts all attributable to the owning job). Pure
stdlib: asyncio for the request path, an executor for the waves.

Fault tolerance (DESIGN.md decision #16) wraps every wave in the
:class:`WaveSupervisor` boundary — per-job deadlines, seeded
backoff+jitter retries, blast-radius bisection down to solo launches,
a per-key :class:`CircuitBreaker` and breaker-driven admission shedding
— and the :class:`JobJournal` write-ahead log makes acknowledged jobs
survive a kill -9 (``repro serve --recover``).
"""

from repro.serve.batcher import DEFAULT_MAX_WAVE_WARPS, CoalescingBatcher
from repro.serve.journal import (
    JOURNAL_FORMAT,
    JobJournal,
    JournalError,
    JournalState,
)
from repro.serve.protocol import (
    DEFAULT_K_SCHEDULE,
    JobOptions,
    JobSpec,
    JobStatus,
    ProtocolError,
    job_fingerprint,
    parse_job_request,
)
from repro.serve.queue import DEFAULT_MAX_IN_FLIGHT, AdmissionControl
from repro.serve.service import AssemblyService, serve_forever
from repro.serve.supervisor import (
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_DEADLINE_S,
    CircuitBreaker,
    LoadShedder,
    WaveDeadlineError,
    WaveSupervisor,
)
from repro.serve.worker import run_wave

__all__ = [
    "AdmissionControl",
    "AssemblyService",
    "CircuitBreaker",
    "CoalescingBatcher",
    "DEFAULT_BREAKER_COOLDOWN_S",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_DEADLINE_S",
    "DEFAULT_K_SCHEDULE",
    "DEFAULT_MAX_IN_FLIGHT",
    "DEFAULT_MAX_WAVE_WARPS",
    "JOURNAL_FORMAT",
    "JobJournal",
    "JobOptions",
    "JobSpec",
    "JobStatus",
    "JournalError",
    "JournalState",
    "LoadShedder",
    "ProtocolError",
    "WaveDeadlineError",
    "WaveSupervisor",
    "job_fingerprint",
    "parse_job_request",
    "run_wave",
    "serve_forever",
]
