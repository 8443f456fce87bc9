"""What reordering the walk's work could change, pinned bit for bit.

The walk may run its lookups in any order and batch them any way it
likes, as long as nothing a subscriber sees moves. This test holds, for
two seeded inputs, four outputs that see inside a launch against a
fixture (``walk_pinned.json``) written from an earlier engine:

* the count-event stream — ``WaveExecuted``, ``ProbeIteration`` and
  ``WalkStep`` in order — of a CUDA ``run_schedule`` (walk groups) and
  of a two-job coalesced wave (one fused walk);
* the ``memory_model="trace"`` replay of every launch;
* the ``record_trace`` slot trace of every launch;
* the sanitizer report of each seeded mutant (``tests/sanitize``).

It also holds what whole schedules (:data:`SCHEDULES`) report, as the
per-warp engine of DESIGN.md decision 37 once did: extensions (a
digest), profile, event counts by type, ``k``, the degraded and retried
sets and the sanitizer's finding count. Two of them are the engine
bench's old shapes (DESIGN.md decision 44): ``bench-smoke`` and
``bench-full``, whose 256 contigs over k = 21…77 are the ledger's
``deep_multik`` input.

Streams and traces are kept as SHA-256 digests (one per launch for the
traces) beside their lengths, so the fixture stays small; the replay
statistics are kept whole, a report as its count per checker, its
first two findings and the digest of them all. ``python -m
tests.kernels.test_walk_pinned`` rewrites the fixture.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.extension import PRODUCTION_POLICY
from repro.genomics.simulate import ErrorProfile, ScenarioSpec, simulate_batch
from repro.kernels import (CudaLocalAssemblyKernel, HipLocalAssemblyKernel,
                           SyclLocalAssemblyKernel)
from repro.kernels.engine import KSchedule, run_ports, run_schedule_coalesced
from repro.kernels.engine.events import ProbeIteration, WalkStep, WaveExecuted
from repro.resilience import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.resilience.checkpoint import profile_to_dict
from repro.simt.device import A100, MAX1550, MI250X

from ..sanitize.mutants import BUG_TO_CHECKER, BUGS, MutantKernel
from .test_coalesce_parity import EventCounter
from .test_coalesce_parity import _contigs as _simulated

FIXTURE = Path(__file__).with_name("walk_pinned.json")
SEEDS = (3, 8)
K_SCHEDULE = (21, 33)

#: Whole schedules by fixture key: the seed of their simulated contigs
#: and ``port`` (kernel, device), ``reads`` (contigs, error rate, and
#: depth or a whole ``ScenarioSpec``), ``ks``, ``starved``
#: (:func:`starved_tables`) and options.
_STARVED = dict(reads=(5, 0.02, 10), starved=True)
_BENCH_FULL = ScenarioSpec(contig_length=220, flank_length=90,
                           read_length=150, depth=10, seed_window=60)
SCHEDULES = {
    **{f"cuda-{seed}-{err}": (seed, dict(reads=(seed + 2, err, 6)))
       for seed in (1, 2, 3) for err in (0.0, 0.01, 0.03)},
    "hip": (11, dict(port=(HipLocalAssemblyKernel, MI250X),
                     reads=(4, 0.01, 6), ks=(21, 33, 45))),
    # ends that fork at k = 21 and 33, so both ports launch at every k
    **{f"{name}-k45": (12, dict(port=port, reads=(5, 0.02, 8),
                                ks=(21, 33, 45)))
       for name, port in (("hip", (HipLocalAssemblyKernel, MI250X)),
                          ("sycl", (SyclLocalAssemblyKernel, MAX1550)))},
    "drop-contig": (7, dict(_STARVED, overflow_policy="drop-contig")),
    "grow-retry-recovers": (7, dict(_STARVED, overflow_policy="grow-retry",
                                    max_grow_attempts=12)),
    "grow-retry-exhausted": (7, dict(_STARVED, overflow_policy="grow-retry",
                                     max_grow_attempts=1)),
    "trace-sanitize": (23, dict(reads=(3, 0.01, 6), memory_model="trace",
                                sanitize="all")),
    "bench-smoke": (2024, dict(reads=(32, 0.005, 6))),
    "bench-full": (2024, dict(reads=(256, 0.005, _BENCH_FULL),
                              ks=(21, 33, 55, 77))),
}
CASES = {**{str(seed): (seed, None) for seed in SEEDS}, **SCHEDULES}


class _CountStream:
    handled_events = (WaveExecuted, ProbeIteration, WalkStep)

    def __init__(self) -> None:
        self.events: list = []

    def handle(self, event, bus) -> None:
        self.events.append((type(event).__name__,
                            *dataclasses.astuple(event)))


def _contigs(seed: int, n: int = 6):
    """Error-bearing reads of two depths, so walks leave their reads and
    the launch policy makes more than one bin."""
    spec = ScenarioSpec(contig_length=150, flank_length=60, read_length=80,
                        depth=6, seed_window=40)
    errors = ErrorProfile(error_rate=0.01, lo_quality_fraction=0.1)
    rng = np.random.default_rng(seed)
    deep = dataclasses.replace(spec, depth=16)
    return [sc.contig for sc in simulate_batch(n, spec, rng, errors)
            + simulate_batch(n // 2, deep, rng, errors)]


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def _kernel(**opts):
    return CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY, **opts)


def _observe(seed: int, schedule: dict | None = None) -> dict:
    if schedule is not None:
        return _schedule_outcome(seed, **schedule)
    contigs = _contigs(seed)
    kern = _kernel()
    stream = kern.add_subscriber(_CountStream())
    kern.run_schedule(contigs, K_SCHEDULE)
    wave = _kernel()
    wave_stream = wave.add_subscriber(_CountStream())
    run_schedule_coalesced(wave, [contigs[:4], contigs[4:]], K_SCHEDULE)
    replay = _kernel(memory_model="trace").run_schedule(
        contigs, K_SCHEDULE).replay
    traced = _kernel()
    traced.record_trace = True
    traces = traced.run_schedule(contigs, K_SCHEDULE).trace
    reports = {}
    for bug in BUGS:
        report = MutantKernel(bugs=(bug,), policy=PRODUCTION_POLICY,
                              sanitize="all").run_schedule(
            contigs, K_SCHEDULE).sanitizer_report
        findings = [f.format() for f in report.findings]
        reports[bug] = {
            "per_checker": {checker: report.count(checker)
                            for checker in BUG_TO_CHECKER.values()},
            "suppressed": report.suppressed, "first": findings[:2],
            "findings": [len(findings), _digest(findings)]}
    return {
        "count_events": [len(stream.events), _digest(stream.events)],
        "wave_count_events": [len(wave_stream.events),
                              _digest(wave_stream.events)],
        "replay": [dataclasses.asdict(r) for r in replay],
        "slot_trace": [[int(t.size), _digest(t.tolist())] for t in traces],
        "mutant_reports": reports,
    }


def starved_tables() -> FaultInjector:
    """Tables of warps 0 and 2 of launch 0 get 4 slots."""
    return FaultInjector(FaultPlan(faults=(FaultSpec(
        FaultKind.TABLE_PRESSURE, launch=0, warps=(0, 2), capacity=4),)))


def _schedule_outcome(seed: int, reads: tuple,
                      port: tuple = (CudaLocalAssemblyKernel, A100),
                      ks: tuple = K_SCHEDULE, starved: bool = False,
                      **opts) -> dict:
    kernel_cls, device = port
    if starved:
        opts["fault_injector"] = starved_tables()
    kern = kernel_cls(device, policy=PRODUCTION_POLICY, **opts)
    events = kern.add_subscriber(EventCounter(handled_events=None))
    n, error_rate, shape = reads
    if isinstance(shape, ScenarioSpec):
        errors = ErrorProfile(error_rate=error_rate, lo_quality_fraction=0.1)
        contigs = [sc.contig for sc in simulate_batch(
            n, shape, np.random.default_rng(seed), errors)]
    else:
        contigs = _simulated(n, seed, error_rate=error_rate, depth=shape)
    res = kern.run_schedule(contigs, ks)
    report = res.sanitizer_report
    ends = [[bases, state.name] for bases, state in res.right + res.left]
    return {"extensions": _digest(ends), "k": res.k,
            "degraded": res.degraded, "retried": res.retried,
            "findings": None if report is None else len(report.findings),
            "events": dict(sorted(events.counts.items())),
            "profile": profile_to_dict(res.profile)}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_what_a_subscriber_sees_is_pinned(pinned, case):
    got = json.loads(json.dumps(_observe(*CASES[case])))
    want = pinned[case]
    for key in want:
        assert got[key] == want[key], f"{case}: {key} moved"


def test_taped_followers_draw_no_links(pinned):
    """CUDA leads HIP and SYCL over the ``*-k45`` inputs, one k-run at a
    time: the followers count its tapes, so only the lead's construct
    draws read links, and each follower still reports its own pinned
    schedule (its event counts aside: a subscriber that counts evidence
    keeps a port from following)."""
    linked = []

    def port(kernel_cls, device):
        class Linked(kernel_cls.tables_cls):
            def link_reads(self, *args):
                linked.append(kernel_cls)
                super().link_reads(*args)

        kern = kernel_cls(device, policy=PRODUCTION_POLICY)
        kern.tables_cls = Linked
        return kern

    kernels = [port(CudaLocalAssemblyKernel, A100),
               port(HipLocalAssemblyKernel, MI250X),
               port(SyclLocalAssemblyKernel, MAX1550)]
    seed, opts = SCHEDULES["hip-k45"]
    n, error_rate, depth = opts["reads"]
    contigs = _simulated(n, seed, error_rate=error_rate, depth=depth)
    schedules = [KSchedule(len(contigs), opts["ks"]) for _ in kernels]
    for k in opts["ks"]:
        if schedules[0].done:
            break
        pending = schedules[0].pending()
        for schedule, res in zip(schedules, run_ports(
                kernels, contigs, k, pending=pending)):
            schedule.add(k, res)
    assert linked and set(linked) == {CudaLocalAssemblyKernel}
    for name, kern, schedule in zip(("hip-k45", "sycl-k45"), kernels[1:],
                                    schedules[1:]):
        res = schedule.result(kern.device)
        ends = [[bases, state.name] for bases, state in res.right + res.left]
        got = json.loads(json.dumps(
            {"extensions": _digest(ends), "k": res.k,
             "degraded": res.degraded, "retried": res.retried,
             "profile": profile_to_dict(res.profile)}))
        assert got == {key: pinned[name][key] for key in got}, name


def main() -> None:
    FIXTURE.write_text(json.dumps(
        {case: _observe(*args) for case, args in CASES.items()},
        indent=1) + "\n")


if __name__ == "__main__":
    main()
