"""The per-table / per-figure experiment suite (DESIGN.md experiment index).

:class:`ExperimentSuite` generates (and caches) the four datasets, runs
each platform's kernel port on its simulated device, extrapolates the
profiles to full dataset size, and exposes one method per paper artifact
returning the same rows/series the paper reports. The benches under
``benchmarks/`` are thin wrappers around these methods.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.core.extension import PRODUCTION_POLICY, WalkPolicy
from repro.errors import CheckpointError, ReproError
from repro.datasets.characteristics import TABLE_II, measure_characteristics
from repro.datasets.generate import generate_paper_dataset
from repro.hashing.opcount import hash_intops_breakdown
from repro.kernels import backend_for_device
from repro.kernels.engine import KernelRunResult, run_ports
from repro.perfmodel.efficiency import algorithm_efficiency, architectural_efficiency
from repro.perfmodel.portability import pennycook
from repro.perfmodel.roofline import roofline_point
from repro.perfmodel.speedup import SpeedupPoint, speedup_point
from repro.perfmodel.theoretical import (
    bytes_per_loop_cycle,
    intops_per_loop_cycle,
    theoretical_ii,
)
from repro.perfmodel.timing import extrapolate_profile, predict_time
from repro.resilience.checkpoint import (
    CheckpointStore,
    profile_from_dict,
    profile_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.resilience.retry import DEFAULT_BACKOFF, DEFAULT_RETRIES, retry_transient
from repro.simt.counters import KernelProfile
from repro.simt.device import PLATFORMS, DeviceSpec, device_by_name

#: Production k-mer schedule (the four datasets of Table II).
K_VALUES = (21, 33, 55, 77)


@dataclass
class ExperimentConfig:
    """Suite-wide knobs.

    Attributes:
        scale: fraction of the paper's dataset sizes to run (the cache
            model and extrapolation restore full-scale pressure).
        seed: dataset RNG seed.
        policy: walk policy (the MetaHipMer-like production thresholds).
        k_values: which Table II datasets to run.
        overflow_policy: every kernel's
            :class:`repro.resilience.OverflowPolicy`.
        checkpoint_dir: when set, each completed ``(device, k)`` run is
            saved there, and runs resume from checkpoints whose
            configuration fingerprint matches.
        fault_injector: optional :class:`repro.resilience.FaultInjector`
            shared by every kernel run.
        max_retries / retry_backoff: retry budget per run for
            :class:`~repro.errors.TransientError` (anything else stays
            fatal).
        retry_sleep: injectable sleep for tests (``None`` = real sleep;
            worker processes always sleep for real).
        workers: default process count for :meth:`ExperimentSuite.run_all`.
    """

    scale: float = 0.02
    seed: int = 2024
    policy: WalkPolicy = field(default_factory=lambda: PRODUCTION_POLICY)
    k_values: tuple[int, ...] = K_VALUES
    overflow_policy: str = "raise"
    checkpoint_dir: str | None = None
    fault_injector: object | None = None
    max_retries: int = DEFAULT_RETRIES
    retry_backoff: float = DEFAULT_BACKOFF
    retry_sleep: object | None = None
    workers: int = 1


@dataclass
class RunRecord:
    """One (device, k) kernel execution plus its full-scale profile."""

    device: DeviceSpec
    k: int
    result: KernelRunResult
    full_profile: KernelProfile
    #: True when the record was restored from a checkpoint, not executed.
    from_checkpoint: bool = False

    def to_dict(self) -> dict:
        """The record as checkpoint ``data`` — and as the wire format of
        :meth:`ExperimentSuite.run_all`'s worker processes."""
        return {"result": result_to_dict(self.result),
                "full_profile": profile_to_dict(self.full_profile)}

    @classmethod
    def from_dict(cls, device: DeviceSpec, data: dict,
                  from_checkpoint: bool) -> "RunRecord":
        """Rebuild a :meth:`to_dict` record against the caller's device."""
        try:
            result = result_from_dict(data["result"], device)
            full = profile_from_dict(data["full_profile"])
        except KeyError as exc:
            raise CheckpointError(
                f"{device.name} run record lacks {exc}") from None
        return cls(device=device, k=result.k, result=result,
                   full_profile=full, from_checkpoint=from_checkpoint)


class ExperimentSuite:
    """Runs and caches everything the tables/figures need."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()
        self._datasets: dict[int, list] = {}
        self._runs: dict[tuple[str, int], RunRecord] = {}
        self._store: CheckpointStore | None = None

    # ------------------------------------------------------------------
    def dataset(self, k: int):
        """The (cached) generated dataset for one k."""
        if k not in self._datasets:
            self._datasets[k] = generate_paper_dataset(
                k, scale=self.config.scale, seed=self.config.seed
            )
        return self._datasets[k]

    def checkpoint_store(self) -> CheckpointStore | None:
        """The suite's checkpoint store (``None`` when checkpointing is off).

        The store's meta fingerprint covers every knob that changes run
        output, so resuming against checkpoints from a different
        configuration fails loudly instead of mixing records.
        """
        if self.config.checkpoint_dir is None:
            return None
        if self._store is None:
            self._store = CheckpointStore(self.config.checkpoint_dir, meta={
                "scale": self.config.scale,
                "seed": self.config.seed,
                "overflow_policy": str(self.config.overflow_policy),
                "policy": dataclasses.asdict(self.config.policy),
                "k_values": list(self.config.k_values),
            })
        return self._store

    def _execute(self, devices: list[DeviceSpec], k: int) -> list[RunRecord]:
        """One uncached, uncheckpointed run of ``devices``' ports on
        dataset ``k``: one :func:`~repro.kernels.engine.simt.run_ports`."""
        injector = self.config.fault_injector
        if injector is not None:
            device, = devices
            injector.before_run(device.name, k)
        kernels = [backend_for_device(
            device, policy=self.config.policy,
            overflow_policy=self.config.overflow_policy,
            fault_injector=injector) for device in devices]
        results = run_ports(kernels, self.dataset(k), k,
                            parallel_scale=self.config.scale)
        return [RunRecord(device=device, k=k, result=result,
                          full_profile=extrapolate_profile(
                              result.profile, device, self.config.scale))
                for device, result in zip(devices, results)]

    def _restore(self, device: DeviceSpec, k: int) -> RunRecord | None:
        """A cell's record from the in-memory cache or a matching
        checkpoint; ``None`` if it has to run."""
        key = (device.name, k)
        store = self.checkpoint_store()
        if key not in self._runs and store is not None:
            data = store.load_named(device.name, k)
            if data is not None:
                self._runs[key] = RunRecord.from_dict(device, data,
                                                      from_checkpoint=True)
        return self._runs.get(key)

    def _run_k(self, k: int, devices) -> None:
        """Run (once) ``devices``' cells of dataset ``k``: restore those
        cached or checkpointed, run the rest together with bounded retry
        of transient failures, then checkpoint and cache each record."""
        todo = [device for device in devices
                if self._restore(device, k) is None]
        if not todo:
            return
        sleep_kw = ({} if self.config.retry_sleep is None
                    else {"sleep": self.config.retry_sleep})
        store = self.checkpoint_store()
        for rec in retry_transient(
                lambda: self._execute(todo, k),
                retries=self.config.max_retries,
                backoff=self.config.retry_backoff, **sleep_kw):
            if store is not None:
                store.save(rec.device.name, k, rec.to_dict())
            self._runs[(rec.device.name, k)] = rec

    def run(self, device: DeviceSpec, k: int) -> RunRecord:
        """Execute (once) the device's kernel port on dataset ``k``.

        Resolution order: the in-memory cache, then a matching checkpoint,
        then a fresh execution (with bounded retry of transient failures),
        which is checkpointed on completion when a store is configured.
        """
        self._run_k(k, (device,))
        return self._runs[(device.name, k)]

    def run_all(self, workers: int | None = None) -> None:
        """Execute the full ``(device, k)`` grid, one k at a time: the
        ports of a k share its prepares and the lead's walks
        (:func:`~repro.kernels.engine.simt.run_ports`); a cell cached or
        checkpointed is restored, and the rest of its k runs without it.

        ``workers`` (``None``: :attr:`ExperimentConfig.workers`) above 1
        hands the pending ks (cells, under a fault injector) to a process
        pool, run as the serial path does on a worker's private suite;
        records travel back through the checkpoint codec, so every export
        is byte-identical to a serial run. There ``retry_sleep`` is not
        forwarded, and a ``fault_injector`` counts run/launch ordinals
        per worker — target it by ``device``/``k``.
        """
        workers = self.config.workers if workers is None else workers
        if workers <= 0:
            raise ReproError(f"workers must be positive, got {workers}")
        ks = self.config.k_values
        # an injector numbers runs and launches cell by cell, in grid order
        tasks = ([(k, [device]) for device in PLATFORMS for k in ks]
                 if self.config.fault_injector is not None
                 else [(k, PLATFORMS) for k in ks])
        if workers == 1:
            for k, devices in tasks:
                self._run_k(k, devices)
            return
        pending = [(k, todo) for k, devices in tasks
                   if (todo := [device.name for device in devices
                                if self._restore(device, k) is None])]
        if not pending:
            return
        with ProcessPoolExecutor(
                max_workers=min(workers, len(pending)),
                initializer=_init_suite_worker,
                initargs=(dataclasses.replace(self.config,
                                              retry_sleep=None),)) as pool:
            for (k, names), records in zip(pending,
                                           pool.map(_run_suite_k, pending)):
                for name, data in zip(names, records):
                    self._runs[(name, k)] = RunRecord.from_dict(
                        device_by_name(name), data, False)

    def resilience_summary(self) -> list[dict]:
        """Per-run degradation/retry/checkpoint accounting (post-``run``)."""
        rows = []
        for (name, k), rec in sorted(self._runs.items()):
            rows.append({
                "device": name, "k": k,
                "degraded_contigs": len(rec.result.degraded),
                "retried_contigs": len(rec.result.retried),
                "launches_dropped": rec.result.profile.contigs_dropped,
                "overflow_retries": rec.result.profile.overflow_retries,
                "from_checkpoint": rec.from_checkpoint,
            })
        return rows

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def table1(self) -> list[dict]:
        """Table I: HPC systems, accelerators, programming models, compilers."""
        return [
            {
                "hpc_system": d.hpc_system,
                "accelerator": f"{d.vendor} {d.name}",
                "programming_model": d.programming_model,
                "compiler": d.compiler,
            }
            for d in PLATFORMS
        ]

    def table2(self) -> list[dict]:
        """Table II: dataset characteristics, measured vs paper targets.

        Extension columns are measured by running the A100 kernel (any
        port gives identical functional output).
        """
        rows = []
        for k in self.config.k_values:
            contigs = self.dataset(k)
            rec = self.run(PLATFORMS[0], k)
            ext_total = sum(len(b) for b, _ in rec.result.right) + sum(
                len(b) for b, _ in rec.result.left
            )
            m = measure_characteristics(contigs, k)
            target = TABLE_II[k].scaled(self.config.scale)
            rows.append(
                {
                    "k": k,
                    "contigs": m.total_contigs,
                    "contigs_target": target.total_contigs,
                    "reads": m.total_reads,
                    "reads_target": target.total_reads,
                    "avg_read_len": round(m.average_read_length, 1),
                    "read_len_target": target.average_read_length,
                    "insertions": m.total_hash_insertions,
                    "insertions_target": target.total_hash_insertions,
                    "avg_extn": round(ext_total / len(contigs), 1),
                    "avg_extn_paper": TABLE_II[k].average_extn_length,
                    "total_extns": ext_total,
                    "total_extns_target": target.total_extns,
                }
            )
        return rows

    def table3(self) -> list[dict]:
        """Table III: architectural feature comparison."""
        return [
            {
                "board": f"{d.vendor} {d.name}",
                "compute_units": d.compute_units,
                "warp_size": d.warp_size,
                "l1_cache_kb": d.l1.size_bytes // 1024,
                "l2_cache_mb": d.l2.size_bytes // (1024 * 1024),
                "memory_gb": d.hbm_bytes // (1024**3),
                "peak_gintops": d.peak_gintops,
                "hbm_gbps": d.hbm_bw_gbps,
            }
            for d in PLATFORMS
        ]

    def _efficiency_table(self, label: str, efficiency) -> dict:
        """Per k, ``efficiency(profile, device, k)`` of every platform in
        percent plus their Pennycook ``label``; and the overall average."""
        rows = []
        all_effs: list[float] = []
        for k in self.config.k_values:
            effs = [efficiency(self.run(device, k).full_profile, device, k)
                    for device in PLATFORMS]
            row = {"k": k}
            for device, eff in zip(PLATFORMS, effs):
                row[device.name] = round(100 * eff, 1)
            row[label] = round(100 * pennycook(effs), 1)
            rows.append(row)
            all_effs += effs
        return {"rows": rows,
                f"average_{label}": round(100 * pennycook(all_effs), 1)}

    def table4(self) -> dict:
        """Table IV: architectural efficiency + Pennycook P_arch."""
        return self._efficiency_table(
            "P_arch", lambda p, device, k: architectural_efficiency(p, device))

    def table5(self) -> list[dict]:
        """Table V: integer operations in the hash function per k."""
        rows = []
        for k in self.config.k_values:
            b = hash_intops_breakdown(k)
            rows.append(
                {
                    "k": k,
                    "initialization": b["initialization"],
                    "mix_loop": b["mix_loop"],
                    "cleanup": b["cleanup"],
                    "key_handling": b["key_handling"],
                    "INTOP1": b["total"],
                }
            )
        return rows

    def table6(self) -> list[dict]:
        """Table VI: theoretical II calculations."""
        return [
            {
                "k": k,
                "intops_per_loop_cycle": intops_per_loop_cycle(k),
                "bytes_per_loop_cycle": bytes_per_loop_cycle(k),
                "theoretical_II": round(theoretical_ii(k), 3),
            }
            for k in self.config.k_values
        ]

    def table7(self) -> dict:
        """Table VII: algorithm efficiency + Pennycook P_alg."""
        return self._efficiency_table(
            "P_alg", lambda p, device, k: algorithm_efficiency(p, k))

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------

    def figure5(self) -> list[dict]:
        """Figure 5: kernel time (seconds) per device per k."""
        rows = []
        for k in self.config.k_values:
            row = {"k": k}
            for device in PLATFORMS:
                row[device.name] = round(self.run(device, k).full_profile.seconds, 5)
            rows.append(row)
        return rows

    def figure6(self) -> dict:
        """Figure 6: instruction (INTOP) roofline points per device."""
        out: dict[str, dict] = {}
        for device in PLATFORMS:
            points = []
            for k in self.config.k_values:
                rec = self.run(device, k)
                p = roofline_point(rec.full_profile, device)
                points.append(
                    {"k": k, "II": round(p.ii, 3),
                     "gintops_per_s": round(p.gintops_per_s, 2),
                     "bound": p.bound,
                     "pct_of_ceiling": round(100 * p.fraction_of_ceiling, 1)}
                )
            out[device.name] = {
                "machine_balance": round(device.machine_balance, 3),
                "peak_gintops": device.peak_gintops,
                "hbm_gbps": device.hbm_bw_gbps,
                "points": points,
            }
        return out

    def _pair(self, a: DeviceSpec, b: DeviceSpec) -> list[dict]:
        rows = []
        for k in self.config.k_values:
            pa = self.run(a, k).full_profile
            pb = self.run(b, k).full_profile
            rows.append(
                {
                    "k": k,
                    f"{a.name}_gintops_per_s": round(pa.gintops_per_second, 2),
                    f"{b.name}_gintops_per_s": round(pb.gintops_per_second, 2),
                    f"{a.name}_gbytes": round(pa.gbytes, 3),
                    f"{b.name}_gbytes": round(pb.gbytes, 3),
                }
            )
        return rows

    def figure7(self) -> list[dict]:
        """Figure 7: A100-vs-MI250X performance and bytes correlation."""
        return self._pair(PLATFORMS[0], PLATFORMS[1])

    def figure8(self) -> list[dict]:
        """Figure 8: A100-vs-Max1550 performance and bytes correlation."""
        return self._pair(PLATFORMS[0], PLATFORMS[2])

    def figure9(self) -> list[SpeedupPoint]:
        """Figure 9: potential speed-up points (one per device per k)."""
        points = []
        for device in PLATFORMS:
            for k in self.config.k_values:
                rec = self.run(device, k)
                points.append(
                    speedup_point(
                        device.name, k,
                        algorithm_efficiency(rec.full_profile, k),
                        architectural_efficiency(rec.full_profile, device),
                    )
                )
        return points

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def timing_breakdown(self) -> list[dict]:
        """Extra diagnostic: per-resource time split (not in the paper)."""
        rows = []
        for device in PLATFORMS:
            for k in self.config.k_values:
                rec = self.run(device, k)
                bd = predict_time(rec.full_profile, device)
                rows.append(
                    {
                        "device": device.name, "k": k,
                        "construct_issue_ms": round(bd.construct_issue * 1e3, 2),
                        "walk_issue_ms": round(bd.walk_issue * 1e3, 2),
                        "memory_ms": round(bd.memory * 1e3, 2),
                        "latency_ms": round(bd.latency * 1e3, 3),
                        "bound": bd.bound,
                    }
                )
        return rows


# ----------------------------------------------------------------------
# Process-pool workers (module-level so they pickle by name): one private
# ExperimentSuite per worker process, one k per task; records cross the
# process boundary as checkpoint-codec dicts, the on-disk store's format.
# ----------------------------------------------------------------------

_WORKER_SUITE: ExperimentSuite | None = None


def _init_suite_worker(config: ExperimentConfig) -> None:
    global _WORKER_SUITE
    _WORKER_SUITE = ExperimentSuite(config)


def _run_suite_k(task: tuple[int, list[str]]) -> list[dict]:
    """Run the named devices' cells of one k; their
    :meth:`RunRecord.to_dict`, in that order."""
    k, names = task
    suite = _WORKER_SUITE
    if suite is None:  # pragma: no cover - initializer always ran
        raise ReproError("suite worker used before initialization")
    suite._run_k(k, list(map(device_by_name, names)))
    return [suite._runs[(name, k)].to_dict() for name in names]
