"""Resilience: fault injection, graceful degradation, checkpoint/resume.

The paper's GPU kernel never aborts on a full per-contig hash table — it
prints ``*hashtable full*`` and drops the contig, because at MetaHipMer
scale one contig must never kill a batch of thousands. This package
makes that class of behavior explicit and testable:

* :class:`OverflowPolicy` — what the engine does on table overflow
  (raise / drop-contig / grow-retry), wired through
  :class:`~repro.kernels.engine.simt.LocalAssemblyKernel` and the scalar
  backend.
* :class:`FaultPlan` / :class:`FaultInjector` — seeded, deterministic
  injection of capacity pressure, read corruption, transient launch
  failures, degenerate perf-model inputs, and suite crashes.
* :class:`CheckpointStore` — one framed file per finished ``(name, k)``
  unit, so the experiment suite, the staged assembler and the service
  each resume from a partial run.
* :func:`retry_transient` — bounded retry-with-backoff that re-attempts
  only the :class:`~repro.errors.TransientError` branch.
"""

from repro.resilience.policy import (
    DEFAULT_GROW_FACTOR,
    DEFAULT_MAX_GROW_ATTEMPTS,
    OverflowPolicy,
)
from repro.resilience.retry import (
    DEFAULT_BACKOFF,
    DEFAULT_JITTER,
    DEFAULT_RETRIES,
    backoff_delay,
    retry_transient,
)
from repro.resilience.faults import (
    CHECKPOINT_FAULT_KINDS,
    WAVE_FAULT_KINDS,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRecord,
    FaultSpec,
    InjectedCrashError,
    corrupt_file,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointStore,
    payload_crc,
    profile_from_dict,
    profile_to_dict,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "CHECKPOINT_FAULT_KINDS",
    "CHECKPOINT_FORMAT",
    "CheckpointStore",
    "DEFAULT_BACKOFF",
    "DEFAULT_GROW_FACTOR",
    "DEFAULT_JITTER",
    "DEFAULT_MAX_GROW_ATTEMPTS",
    "DEFAULT_RETRIES",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "InjectedCrashError",
    "OverflowPolicy",
    "WAVE_FAULT_KINDS",
    "backoff_delay",
    "corrupt_file",
    "payload_crc",
    "profile_from_dict",
    "profile_to_dict",
    "result_from_dict",
    "result_to_dict",
    "retry_transient",
]
