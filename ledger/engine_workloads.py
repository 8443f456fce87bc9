"""The two engine workloads: ``deep_multik`` and ``paper_grid``.

Both time whole caller-visible operations (one ``run_schedule``; one
``ExperimentSuite.run_all`` plus the paper tables) with tracing off, and
— in a traced run — alternate untraced and traced iterations so the
per-layer self times and the tracing overhead come from the same process
and the same inputs.

The untraced paths import only what ROADMAP item 2 promises to keep:
``create_backend``, ``ExperimentSuite`` / ``ExperimentConfig``, the
device table, ``PRODUCTION_POLICY`` and the input generators.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import statistics
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))

K_SCHEDULE = (21, 33, 55, 77)

#: deep_multik input shape (the ``full`` scale of BENCH_engine.json, so
#: the two can be read side by side).
DEEP = dict(n_contigs=256, contig_length=220, flank_length=90,
            read_length=150, depth=10, seed_window=60)
DEEP_SMOKE = dict(n_contigs=12, contig_length=150, flank_length=60,
                  read_length=80, depth=6, seed_window=40)

#: How many contigs of deep_multik are re-run on the scalar backend. Under
#: PRODUCTION_POLICY the pure-Python reference takes ~0.4 s per deep contig;
#: 32 of them would cost more than half of the timed region.
SCALAR_SAMPLE = 8

#: Fewest timed iterations of a run, whatever ``--seconds`` says. The
#: issue asked for five of each; five ``paper_grid`` iterations take 35 s
#: on a quiet machine and 50 s when the host is contended, and 22 such
#: runs do not fit the driver's time cap beside the other workloads.
MIN_ITERATIONS = {"deep_multik": 5, "paper_grid": 3}


class IterationTimer:
    """Times whole iterations until the budget is spent.

    ``untraced`` / ``traced`` hold (wall, cpu) per iteration. A traced
    run alternates the two; an untraced run never installs a hook.
    """

    def __init__(self, seconds: float, trace: bool, min_iterations: int):
        self.deadline = time.perf_counter() + seconds
        self.trace = trace
        self.min_iterations = min_iterations
        self.tracer = tracing.Tracer() if trace else None
        self.untraced: list[tuple[float, float]] = []
        self.traced: list[tuple[float, float]] = []
        self.result = None  # of the latest iteration

    def _more(self) -> bool:
        walls = [w for w, _ in self.untraced + self.traced]
        n = min(len(self.untraced), len(self.traced)) if self.trace \
            else len(self.untraced)
        need = 2 if self.trace else self.min_iterations
        if n < need:
            return True
        # start another iteration only if it is expected to fit
        return time.perf_counter() + statistics.median(walls) <= self.deadline

    def run(self, iteration) -> None:
        """Call ``iteration()`` (returns its result) until time is up."""
        while self._more():
            traced = self.trace and len(self.traced) < len(self.untraced)
            if traced:
                tracing.install(self.tracer, serve=False)
                root = self.tracer.begin("iteration")
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = iteration()
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                if traced:
                    self.tracer.end(root)
                    self.tracer.uninstall()
            (self.traced if traced else self.untraced).append((wall, cpu))
            self.result = result

    def report(self) -> dict:
        """Sample counts (and dead hooks) for the result record."""
        return {"samples": {"iterations": len(self.untraced),
                            "traced_iterations": len(self.traced),
                            "wall_s": [w for w, _ in self.untraced]},
                "unresolved": sorted(set(self.tracer.unresolved))
                if self.trace else []}


def end_to_end(timer: IterationTimer, contigs_per_iter: int) -> dict:
    walls = [w for w, _ in timer.untraced]
    cpus = [c for _, c in timer.untraced]
    med = statistics.median(walls)
    return {
        "contigs_per_s": contigs_per_iter / med,
        "cpu_ms_per_contig": 1e3 * statistics.median(cpus) / contigs_per_iter,
        # with fewer than 20 iterations the median is the highest
        # percentile the sample supports
        "latency_p50_ms": 1e3 * med,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def engine_layers(timer: IterationTimer, profiles: list, sim_intops: float,
                  ) -> dict:
    """Per-layer metrics of the traced iterations (per iteration means)."""
    tracer = timer.tracer
    n = len(timer.traced)
    spans = tracer.spans()
    own = tracing.self_times(spans)
    traced_wall = sum(w for w, _ in timer.traced)
    out = {f"{name}_s": own.get(name, 0.0) / n
           for name in tracing.ENGINE_SPANS}
    for name in tracing.ENGINE_COUNTS:
        out[name] = tracer.counts.get(name, 0) / n
    out["events.emitted"] = sum(
        s["name"] == "events.subscribers" for s in spans) / n
    out.update(profile_counts(profiles))
    untraced_med = statistics.median(w for w, _ in timer.untraced)
    traced_med = statistics.median(w for w, _ in timer.traced)
    out["trace.overhead_frac"] = traced_med / untraced_med - 1.0
    out["trace.unattributed_frac"] = own.get("iteration", 0.0) / traced_wall
    out["trace.spans"] = len(spans) / n
    out["trace.unresolved_hooks"] = len(set(tracer.unresolved))
    out["host.sim_intops_per_host_s"] = sim_intops / untraced_med
    return out


def profile_counts(profiles: list[dict]) -> dict:
    """Work counts the engine already keeps in its ``KernelProfile``."""
    total = lambda field: sum(p.get(field, 0) for p in profiles)
    inserts, probes = total("inserts"), total("insert_probe_iterations")
    hits, misses = total("prep_cache_hits"), total("prep_cache_misses")
    return {
        "simt.launches": total("kernels_launched"),
        "construct.inserts": inserts,
        "construct.probe_iterations": probes,
        "construct.probe_efficiency": inserts / probes if probes else 0.0,
        "walk.lookups": total("lookups"),
        "walk.lookup_probe_iterations": total("lookup_probe_iterations"),
        "prepare.cache_hit_ratio": (hits / (hits + misses)
                                    if hits + misses else 0.0),
    }


def dump_trace(timer: IterationTimer, workload: str) -> None:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    timer.tracer.dump(os.path.join(out_dir, f"{workload}.trace.json"))


# ----------------------------------------------------------------------
# deep_multik
# ----------------------------------------------------------------------


def deep_multik_setup(seed: int, smoke: bool) -> list:
    import numpy as np
    import repro.kernels  # noqa: F401  (the import is part of set-up)
    from repro.genomics.simulate import (ErrorProfile, ScenarioSpec,
                                         simulate_batch)

    shape = dict(DEEP_SMOKE if smoke else DEEP)
    n = shape.pop("n_contigs")
    errors = ErrorProfile(error_rate=0.005, lo_quality_fraction=0.1)
    rng = np.random.default_rng(seed)
    return [sc.contig
            for sc in simulate_batch(n, ScenarioSpec(**shape), rng, errors)]


def deep_multik(contigs: list, seed: int, seconds: float, trace: bool,
                smoke: bool) -> dict:
    import numpy as np
    from repro.core.extension import PRODUCTION_POLICY
    from repro.kernels import create_backend
    from repro.simt.device import A100

    def iteration():
        kernel = create_backend("cuda", device=A100, policy=PRODUCTION_POLICY)
        return kernel.run_schedule(contigs, K_SCHEDULE)

    timer = IterationTimer(seconds, trace,
                           2 if smoke else MIN_ITERATIONS["deep_multik"])
    iteration()  # warm-up: the first run pays page faults for ~300 MB
    timer.run(iteration)
    result = timer.result
    metrics = end_to_end(timer, len(contigs))

    # correctness, outside the timed region: a seeded subsample must match
    # the scalar CPU backend base for base and state for state
    rng = np.random.default_rng(seed)
    sample = sorted(rng.choice(len(contigs),
                               size=min(SCALAR_SAMPLE, len(contigs)),
                               replace=False).tolist())
    reference = create_backend("scalar", policy=PRODUCTION_POLICY).run_schedule(
        [contigs[i] for i in sample], K_SCHEDULE)
    wrong = {i for j, i in enumerate(sample)
             if result.right[i] != reference.right[j]
             or result.left[i] != reference.left[j]}
    failed = len(wrong | set(result.degraded))

    profile = dataclasses.asdict(result.profile)
    if trace:
        metrics = engine_layers(timer, [profile], profile["intops"])
        dump_trace(timer, "deep_multik")
    return {"attempted": len(contigs), "failed": failed, "metrics": metrics,
            **timer.report(),
            "sim_digest": digest([profile])}


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------


def paper_grid_setup(seed: int, smoke: bool):
    import repro.analysis.experiments  # noqa: F401
    with open(os.path.join(HERE, "paper_reference.json")) as fh:
        return json.load(fh)


def paper_grid(reference: dict, seed: int, seconds: float, trace: bool,
               smoke: bool) -> dict:
    from repro.analysis.experiments import ExperimentConfig, ExperimentSuite
    from repro.simt.device import PLATFORMS

    scale = 0.001 if smoke else 0.1

    def iteration(scale=scale):
        suite = ExperimentSuite(ExperimentConfig(scale=scale, seed=seed))
        suite.run_all()
        return suite, suite.figure5(), suite.table4(), suite.table7()

    # warm-up at a fifth of the size: it only has to trigger the lazy
    # imports; the first full iteration measures no slower than the rest
    iteration(scale / 5)
    timer = IterationTimer(seconds, trace,
                           2 if smoke else MIN_ITERATIONS["paper_grid"])
    timer.run(iteration)
    suite, fig5, tab4, tab7 = timer.result
    ks = suite.config.k_values
    sizes = {k: len(suite.dataset(k)) for k in ks}
    contigs_per_iter = sum(sizes.values()) * len(PLATFORMS)
    metrics = end_to_end(timer, contigs_per_iter)

    # correctness: per k, every port must produce identical bases (the
    # warp width changes the profile, never the extension)
    failed = 0
    for k in ks:
        runs = [suite.run(device, k).result for device in PLATFORMS]
        for i in range(sizes[k]):
            ends = {(r.right[i], r.left[i]) for r in runs}
            failed += len(ends) > 1
        failed += sum(len(r.degraded) for r in runs)
    attempted = sum(sizes.values())

    records = {(d.name, k): suite.run(d, k) for d in PLATFORMS for k in ks}
    full = {key: dataclasses.asdict(rec.full_profile)
            for key, rec in records.items()}
    if trace:
        host_profiles = [dataclasses.asdict(rec.result.profile)
                         for rec in records.values()]
        metrics = engine_layers(timer, host_profiles,
                                sum(p["intops"] for p in host_profiles))
        metrics.update(paper_metrics(suite, fig5, tab4, tab7, reference))
        metrics["perfmodel.sim_intops_g"] = sum(
            p["intops"] for p in full.values()) / 1e9
        metrics["perfmodel.sim_hbm_mb"] = sum(
            p["hbm_bytes"] for p in full.values()) / 1e6
        dump_trace(timer, "paper_grid")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            **timer.report(),
            "sim_digest": digest([full[key] for key in sorted(full)])}


def paper_metrics(suite, fig5: list, tab4: dict, tab7: dict,
                  reference: dict) -> dict:
    """The paper's own quantities, simulated, and their error against the
    paper's values (``paper_reference.json``). Simulated time only."""
    from repro.simt.device import PLATFORMS

    ks = suite.config.k_values
    names = [device.name for device in PLATFORMS]
    mean = lambda values: sum(values) / len(values)
    out = {"perfmodel.fig5_time_mape": mean(
        [abs(row[name] - reference["figure5_s"][str(row["k"])][name])
         / reference["figure5_s"][str(row["k"])][name]
         for row in fig5 for name in names])}
    for table, rows, key in (("table4_pct", tab4["rows"], "perfmodel.tab4_mae_pts"),
                             ("table7_pct", tab7["rows"], "perfmodel.tab7_mae_pts")):
        out[key] = mean([abs(row[name] - reference[table][str(row["k"])][name])
                         for row in rows for name in names])
    for device in PLATFORMS:
        name = device.name
        out[f"perfmodel.sim_kernel_ms.{name}"] = mean(
            [1e3 * row[name] for row in fig5])
        out[f"perfmodel.intop_intensity.{name}"] = mean(
            [suite.run(device, k).full_profile.intop_intensity for k in ks])
        out[f"perfmodel.arch_efficiency.{name}"] = mean(
            [row[name] / 100 for row in tab4["rows"]])
        out[f"perfmodel.alg_efficiency.{name}"] = mean(
            [row[name] / 100 for row in tab7["rows"]])
    return out


def digest(profiles: list[dict]) -> str:
    """sha256 over every simulated counter: a change that only speeds up
    the host must leave this unchanged (at the same seed)."""
    return hashlib.sha256(
        json.dumps(profiles, sort_keys=True).encode()).hexdigest()
