"""Pinned-scale engine benchmarks behind ``repro bench``.

Runs the megabatch engine's ``run_schedule`` at fixed, committed scales
(a seconds-fast *smoke* scale for CI and a larger *full* scale for local
regression hunting), and writes ``BENCH_engine.json`` at the repo root:

* **counters** — the run's functional and profiling identity (merged
  profile, per-event-type counts, extension base totals). These are
  deterministic for a pinned scenario, so the gate on them is *exact
  equality*: any divergence from the committed baseline means the
  engine's semantics changed, which a wall-clock threshold would let
  slip through.
* **wall_s / throughput_contigs_per_s** — best-of-``repeats`` wall
  clock of an uninstrumented ``run_schedule`` and its contig
  throughput. The gate is a relative one (default: fail when
  throughput drops more than 25% below the baseline), sized so machine
  jitter passes but an accidental de-vectorization also fails here (the
  exact check is ``tests/kernels/test_lockstep_lines.py``).
* **peak_rss_kb** — ``ru_maxrss`` after the runs, recording the memory
  cost of the preallocated megabatch state.

The committed baseline is the previous accepted run of this same
module; ``repro bench`` re-measures, rewrites the file, and exits
nonzero when the gate trips (see the *bench* CI job).
"""

from __future__ import annotations

import resource
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from repro.core.extension import PRODUCTION_POLICY
from repro.genomics.simulate import ErrorProfile, ScenarioSpec, simulate_batch

#: Format version of ``BENCH_engine.json``.
BENCH_SCHEMA = 1

#: Default location of the bench baseline, relative to the repo root.
DEFAULT_BENCH_PATH = "BENCH_engine.json"

#: Default throughput-regression gate (fraction below baseline).
MAX_REGRESSION = 0.25

#: The ``counters`` keys that say what was *computed* — extension bases,
#: terminal states, who was degraded or retried. Every other leaf counts
#: how the simulated GPU got there: a change to the model may move those,
#: never these, and the gate says which kind diverged so a re-pin can be
#: audited.
FUNCTIONAL_FIELDS = ("left_bases", "right_bases", "states", "degraded",
                     "retried")


@dataclass(frozen=True)
class BenchScale:
    """One pinned benchmark configuration (committed with the baseline)."""

    name: str
    n_contigs: int
    k_schedule: tuple[int, ...]
    contig_length: int
    flank_length: int
    read_length: int
    depth: int
    seed_window: int
    seed: int = 2024
    error_rate: float = 0.0
    lo_quality_fraction: float = 0.0


#: CI-fast identity scale: a couple of seconds end to end on one core.
SMOKE = BenchScale(name="smoke", n_contigs=32, k_schedule=(21, 33),
                   contig_length=150, flank_length=60, read_length=80,
                   depth=6, seed_window=40,
                   error_rate=0.005, lo_quality_fraction=0.1)

#: Table II-shaped regression scale for local runs. Error-bearing reads
#: keep every k of the schedule live (perfect reads settle after the
#: first k), so this is the scale the tentpole speedup is measured at.
FULL = BenchScale(name="full", n_contigs=256, k_schedule=(21, 33, 55, 77),
                  contig_length=220, flank_length=90, read_length=150,
                  depth=10, seed_window=60,
                  error_rate=0.005, lo_quality_fraction=0.1)

_SCALES = {s.name: s for s in (SMOKE, FULL)}


class EventCounter:
    """Counts every emitted event by type name.

    Declares no ``handled_events``, so :meth:`EventBus.wants` reports
    every event type as wanted — the gated slot/barrier events are
    forced on and counted too, making the count vector a complete
    fingerprint of the engine's event stream.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def handle(self, event, bus) -> None:
        name = type(event).__name__
        self.counts[name] = self.counts.get(name, 0) + 1


def bench_contigs(scale: BenchScale) -> list:
    """The pinned contig set for one scale (seeded, reproducible)."""
    rng = np.random.default_rng(scale.seed)
    spec = ScenarioSpec(contig_length=scale.contig_length,
                        flank_length=scale.flank_length,
                        read_length=scale.read_length,
                        depth=scale.depth,
                        seed_window=scale.seed_window)
    errors = ErrorProfile(error_rate=scale.error_rate,
                          lo_quality_fraction=scale.lo_quality_fraction)
    return [sc.contig for sc in
            simulate_batch(scale.n_contigs, spec, rng, errors)]


def _kernel():
    from repro.kernels import CudaLocalAssemblyKernel
    from repro.simt.device import A100

    return CudaLocalAssemblyKernel(A100, policy=PRODUCTION_POLICY)


def run_scale(scale: BenchScale, repeats: int = 3) -> dict:
    """Measure one pinned scale: identity counters + best-of-N timing."""
    from repro.resilience.checkpoint import profile_to_dict

    contigs = bench_contigs(scale)

    # identity pass: instrumented (all events forced on and counted)
    kern = _kernel()
    counter = kern.add_subscriber(EventCounter())
    res = kern.run_schedule(contigs, scale.k_schedule)
    counters = {
        "k": res.k,
        "degraded": list(res.degraded),
        "retried": list(res.retried),
        "right_bases": int(sum(len(b) for b, _ in res.right)),
        "left_bases": int(sum(len(b) for b, _ in res.left)),
        "states": sorted(
            f"{s.value}:{n}" for s, n in _state_histogram(res).items()),
        "profile": profile_to_dict(res.profile),
        "events": dict(sorted(counter.counts.items())),
    }

    # timing pass: fresh uninstrumented kernels, best of `repeats`
    best = float("inf")
    for _ in range(max(1, repeats)):
        kern = _kernel()
        t0 = time.perf_counter()
        kern.run_schedule(contigs, scale.k_schedule)
        best = min(best, time.perf_counter() - t0)

    return {
        "pins": {**asdict(scale), "k_schedule": list(scale.k_schedule)},
        "counters": counters,
        "wall_s": round(best, 4),
        "throughput_contigs_per_s": round(scale.n_contigs / best, 2),
        "peak_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
    }


def _state_histogram(res) -> dict:
    hist: dict = {}
    for side in (res.right, res.left):
        for _, state in side:
            hist[state] = hist.get(state, 0) + 1
    return hist


def collect_bench(smoke_only: bool = False, repeats: int = 3) -> dict:
    """Run the pinned scales and assemble the ``BENCH_engine.json`` doc."""
    names = ("smoke",) if smoke_only else ("smoke", "full")
    return {
        "schema": BENCH_SCHEMA,
        "scales": {n: run_scale(_SCALES[n], repeats) for n in names},
    }


def _first_divergence(base, cur, path: str = "") -> str | None:
    """Dotted path of the first differing leaf between two JSON trees."""
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(set(base) | set(cur)):
            sub = _first_divergence(base.get(key), cur.get(key),
                                    f"{path}.{key}" if path else str(key))
            if sub is not None:
                return sub
        return None
    if base != cur:
        return f"{path}: baseline {base!r} != current {cur!r}"
    return None


def _counter_divergence(base: dict, cur: dict) -> str | None:
    """Where two ``counters`` trees first differ, functional fields
    (:data:`FUNCTIONAL_FIELDS`) looked at first, worded as which kind —
    the serve suite's counters carry none, so there it is just the leaf."""
    def functional(counters: dict) -> dict:
        return {key: counters[key] for key in FUNCTIONAL_FIELDS
                if key in counters}

    diff = _first_divergence(functional(base), functional(cur))
    if diff is not None:
        return f"a functional field, {diff}"
    diff = _first_divergence(base, cur)
    if diff is None or not (functional(base) or functional(cur)):
        return diff
    return f"a simulated counter (functional fields identical), {diff}"


def compare_documents(baseline: dict, current: dict, max_regression: float,
                      identity: str, rate: str, unit: str,
                      throughput: Callable[[dict], float | None]) -> list[str]:
    """The baseline gate both suites share (empty = pass).

    Counters must match *exactly* — a divergence is reported as being in
    a functional field or in a simulated counter; ``throughput(scale)``
    may not drop more than ``max_regression`` below the baseline. Scales
    present on only one side are skipped (a ``--smoke`` run gates only
    the smoke scale). ``identity`` / ``rate`` / ``unit`` word the
    messages.
    """
    problems: list[str] = []
    if baseline.get("schema") != current.get("schema"):
        problems.append(
            f"schema changed: baseline {baseline.get('schema')} != "
            f"current {current.get('schema')}; re-commit the baseline")
        return problems
    for name, cur in current.get("scales", {}).items():
        base = baseline.get("scales", {}).get(name)
        if base is None:
            continue
        diff = _counter_divergence(base.get("counters") or {},
                                   cur.get("counters") or {})
        if diff is not None:
            problems.append(
                f"{name}: {identity} diverged from the committed "
                f"baseline in {diff}")
        tp_base = throughput(base) or 0.0
        tp_cur = throughput(cur) or 0.0
        if tp_base > 0 and tp_cur < tp_base * (1.0 - max_regression):
            problems.append(
                f"{name}: {rate} regressed to {tp_cur:.2f} {unit} "
                f"(baseline {tp_base:.2f}, gate at "
                f"-{max_regression:.0%})")
    return problems


def compare_bench(baseline: dict, current: dict,
                  max_regression: float = MAX_REGRESSION) -> list[str]:
    """Gate violations of ``current`` against ``BENCH_engine.json``."""
    return compare_documents(
        baseline, current, max_regression, "engine identity", "throughput",
        "contigs/s", lambda scale: scale.get("throughput_contigs_per_s"))


def _describe(scale: dict) -> str:
    return (f"{scale['wall_s']:.4f} s wall, "
            f"{scale['throughput_contigs_per_s']:.2f} contigs/s, "
            f"peak RSS {scale['peak_rss_kb']} kB")


@dataclass(frozen=True)
class BenchSuite:
    """What ``repro bench`` needs to run, report and gate one suite."""

    default_path: str
    collect: Callable[..., dict]
    compare: Callable[..., list[str]]
    #: One measured scale -> its summary line.
    describe: Callable[[dict], str]
    #: In-run gate on the measured document alone (empty = pass).
    floor: Callable[[dict], list[str]] = lambda current: []


SUITE = BenchSuite(DEFAULT_BENCH_PATH, collect_bench, compare_bench, _describe)
