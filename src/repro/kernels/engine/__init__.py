"""The staged local-assembly execution engine.

The engine splits the kernel workflow into its natural stages —
prepare (:mod:`~repro.kernels.engine.prepare`), construct
(:mod:`~repro.kernels.engine.construct`), walk
(:mod:`~repro.kernels.engine.walk`) — driven by the launch
schedule (:mod:`~repro.kernels.engine.schedule`), counted through one
tally per launch (:mod:`~repro.kernels.engine.tally`) and observed through
an event bus (:mod:`~repro.kernels.engine.events`). Execution paths
(the three SIMT vendor ports plus the scalar CPU reference) implement the
:class:`~repro.kernels.engine.backend.ExecutionBackend` protocol and are
selected by name from :data:`repro.kernels.BACKENDS`.
"""

from repro.kernels.engine.backend import (
    ExecutionBackend,
    KernelRunResult,
    ProtocolCosts,
    ScalarReferenceBackend,
)
from repro.kernels.engine.coalesce import (
    CoalescedJobResult,
    run_schedule_coalesced,
)
from repro.kernels.engine.construct import ConstructPhase, ConstructResult
from repro.kernels.engine.oracle import (
    ScalarOracleConstructPhase,
    ScalarOracleWalkPhase,
    iterate_k_schedule_scalar,
    oracle_kernel_cls,
)
from repro.kernels.engine.events import (
    BarrierSync,
    ContigDropped,
    ContigRetried,
    CountRecorder,
    EventBus,
    LaunchDone,
    LaunchStarted,
    MemoryTrafficResolved,
    ProbeIteration,
    SlotAccess,
    SlotRead,
    SlotWrite,
    TraceReplayStats,
    TraceReplaySubscriber,
    TraceSubscriber,
    WalkStep,
    WaveExecuted,
    replay_l2_hit_rate,
    replay_suggested_l2_churn,
)
from repro.kernels.engine.prepare import (
    Batch,
    BatchPreparer,
    FlattenedBin,
    concat_batches,
    run_length_sorted,
    segmented_arange,
    subset_batch,
)
from repro.kernels.engine.schedule import (
    BinnedLaunchPolicy,
    KSchedule,
    LaunchConfig,
    LaunchPlan,
    SideArrays,
    iterate_k_schedule,
    narrow_plans,
    pending_ends,
    validate_k_schedule,
)
from repro.kernels.engine.simt import LocalAssemblyKernel, run_ports
from repro.kernels.engine.tally import (
    ITERATION_BASE_INSTRS,
    WALK_STEP_INTOPS,
    LaunchTally,
    charge,
)
from repro.kernels.engine.walk import (
    VisitedFingerprintSet,
    WalkOutput,
    WalkPhase,
    WalkTape,
)

__all__ = [
    # backend protocol
    "ExecutionBackend",
    "KernelRunResult",
    "ProtocolCosts",
    "ScalarReferenceBackend",
    # phases
    "ConstructPhase",
    "ConstructResult",
    "VisitedFingerprintSet",
    "WalkOutput",
    "WalkPhase",
    "WalkTape",
    # scalar parity oracles
    "ScalarOracleConstructPhase",
    "ScalarOracleWalkPhase",
    "iterate_k_schedule_scalar",
    "oracle_kernel_cls",
    # the count channel
    "ITERATION_BASE_INSTRS",
    "WALK_STEP_INTOPS",
    "LaunchTally",
    "charge",
    # events + subscribers
    "BarrierSync",
    "ContigDropped",
    "ContigRetried",
    "CountRecorder",
    "EventBus",
    "LaunchDone",
    "LaunchStarted",
    "MemoryTrafficResolved",
    "ProbeIteration",
    "SlotAccess",
    "SlotRead",
    "SlotWrite",
    "TraceReplayStats",
    "TraceReplaySubscriber",
    "TraceSubscriber",
    "WalkStep",
    "WaveExecuted",
    "replay_l2_hit_rate",
    "replay_suggested_l2_churn",
    # preparation
    "Batch",
    "BatchPreparer",
    "FlattenedBin",
    "concat_batches",
    "run_length_sorted",
    "segmented_arange",
    "subset_batch",
    # multi-tenant coalescing
    "CoalescedJobResult",
    "run_schedule_coalesced",
    # scheduling
    "BinnedLaunchPolicy",
    "KSchedule",
    "LaunchConfig",
    "LaunchPlan",
    "SideArrays",
    "iterate_k_schedule",
    "narrow_plans",
    "pending_ends",
    "validate_k_schedule",
    # driver
    "LocalAssemblyKernel",
    "run_ports",
]
