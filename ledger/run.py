"""The performance ledger: one command, every metric by name.

    python3 ledger/run.py [--seed 2024] [--workload NAME] [--smoke]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs twice —
tracing off for the end-to-end metrics, tracing on for the per-layer
ones — each in its own child process (so peak RSS is per workload), and
the merged result lands in ``ledger/out/result.json``.

With ``--workload`` (how the benchmark driver calls it, adding
``--seconds`` and ``--trace``) one workload runs in this process and the
last line of standard output is the contract's JSON object.
"""

from __future__ import annotations

import os
import sys
import time

#: glibc malloc settings every process of the benchmark runs under (this
#: one, the servers, the set-up probes): serve every request from the heap
#: and never give the heap back. By default each iteration maps and unmaps
#: ~300 MB, and in this sandbox (a Firecracker VM) faulting those pages in
#: costs anything from 0.1 to 1.3 s of system time per iteration — 10x more
#: run-to-run spread than the program's own user time shows (README,
#: "Steadiness").
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}

if __name__ == "__main__" and any(os.environ.get(k) != v
                                  for k, v in MALLOC_ENV.items()):
    os.environ.update(MALLOC_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

T0 = time.perf_counter()  # set-up is timed from here: imports count

import argparse
import json
import platform
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import cpus  # noqa: E402  (beside this file)

#: Extra set-up runs (child processes) beside this process's own; the
#: reported ``setup_s`` is the median of all of them.
SETUP_PROBES = 2

#: Load average above nproc, a load generator this late (p99), or the
#: hypervisor withholding this share of the CPUs' time marks a run ``noisy``.
MAX_GENERATOR_LAG_MS = 20.0
MAX_STEAL_FRAC = 0.05


def manifest() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def workload_functions(name: str):
    """``(setup, run)`` of one workload. Imported late: importing the
    program under test is part of the set-up being timed."""
    import engine_workloads as engine
    import serve_workloads as serve

    if name == "deep_multik":
        return (lambda a: engine.deep_multik_setup(a.seed, a.smoke),
                lambda p, a: engine.deep_multik(p, a.seed, a.seconds,
                                                a.trace, a.smoke))
    if name == "paper_grid":
        return (lambda a: engine.paper_grid_setup(a.seed, a.smoke),
                lambda p, a: engine.paper_grid(p, a.seed, a.seconds,
                                               a.trace, a.smoke))
    if name in ("serve_steady", "serve_backlog"):
        return (lambda a: serve.setup(name, a.seed, a.seconds, a.trace,
                                      a.smoke),
                lambda p, a: serve.serve(name, p, a.seed, a.seconds,
                                         a.trace, a.smoke))
    raise SystemExit(f"unknown workload {name!r}")


def stolen() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot; (0, 1) off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 1
    return fields[7], sum(fields[:8])


def environment(args) -> dict:
    import numpy

    commit = None
    # the driver's checkout is no repository, and git would search upwards
    if os.path.exists(os.path.join(REPO, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke, "commit": commit,
            "loadavg_start": os.getloadavg()[0]}


def child(args, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.abspath(__file__), "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    if args.smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=REPO,
                          timeout=900)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"ledger: child failed ({proc.returncode}): "
                         f"{' '.join(proc.args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def run_workload(args) -> int:
    spec = manifest()
    cpus.pin("load")  # before set-up: what it starts inherits the CPU
    setup, run = workload_functions(args.workload)
    prepared = setup(args)
    setup_s = [time.perf_counter() - T0]
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s[0]}))
            return 0
        env = environment(args)
        steal0, total0 = stolen()
        if not args.trace and not args.smoke:
            for _ in range(SETUP_PROBES):
                probe = child(args, "--workload", args.workload, "--setup-only")
                setup_s.append(last_json(probe)["setup_s"])
        result = run(prepared, args)
    finally:
        if hasattr(prepared, "close"):  # a started server: always reaped
            prepared.close()
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_s)
        result["samples"]["setup_s"] = setup_s
    elif result.get("sim_digest"):
        # the digest as a number (its first 48 bits are exact in a float)
        metrics["sim.digest48"] = int(result["sim_digest"][:12], 16)

    env["loadavg_end"] = os.getloadavg()[0]
    steal1, total1 = stolen()
    env["steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
    warnings = []
    if env["steal_frac"] > MAX_STEAL_FRAC:
        warnings.append(f"the hypervisor withheld {env['steal_frac']:.1%} of "
                        f"CPU time")
    if max(env["loadavg_start"], env["loadavg_end"]) > env["nproc"]:
        warnings.append(f"load average {env['loadavg_end']:.2f} exceeds "
                        f"nproc {env['nproc']}")
    lag = result.get("generator_lag_p99_ms", 0.0)
    if lag > MAX_GENERATOR_LAG_MS:
        warnings.append(f"load generator ran {lag:.1f} ms late (p99)")
    overhead = metrics.get("trace.overhead_frac", 0.0)
    if overhead > 0.10:
        warnings.append(f"tracing overhead {overhead:.1%} exceeds 10%")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in metrics and not args.trace:
            raise SystemExit(f"ledger: {args.workload} did not produce "
                             f"end-to-end metric {m['name']}")
        # a layer this workload never enters did no work: 0, as measured
        out[m["name"]] = {"value": metrics.get(m["name"], 0.0),
                          "unit": m["unit"]}
    unlisted = sorted(set(metrics) - set(out))
    for target in result.get("unresolved", []):
        warnings.append(f"hook {target} no longer resolves; its metric "
                        f"reads 0")

    for w in warnings:
        print(f"ledger: warning: {w}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={int(args.trace)}"
          f"{' NOISY' if warnings and not args.smoke else ''}")
    for name, m in out.items():
        if name in metrics:
            print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    for name in unlisted:
        print(f"{name:42s} {metrics[name]:>16.6g} (not in BENCHMARK.json)")

    failed = int(result["failed"])
    record = {"workload": args.workload, "trace": int(args.trace),
              "environment": env, "noisy": bool(warnings),
              "warnings": warnings, "attempted": int(result["attempted"]),
              "failed": failed,
              "failed_fraction": failed / result["attempted"],
              "samples": result.get("samples", {}),
              "sim_digest": result.get("sim_digest"),
              "metrics": out}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    kind = "layers" if args.trace else "e2e"
    with open(os.path.join(out_dir, f"{args.workload}.{kind}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": failed == 0,
                      "attempted": int(result["attempted"]),
                      "failed": failed, "metrics": out}))
    return 0


# ----------------------------------------------------------------------
# every workload, each in its own child
# ----------------------------------------------------------------------


def run_all(args) -> int:
    spec = manifest()
    merged = {"workloads": {}}
    ok = True
    for w in spec["workloads"]:
        entry = merged["workloads"][w["name"]] = {"why": w["why"], "e2e": []}
        for trace in [0] * args.runs + [1]:
            proc = child(args, "--workload", w["name"], "--trace", str(trace))
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            ok &= last_json(proc)["correct"]
            kind = "layers" if trace else "e2e"
            with open(os.path.join(HERE, "out",
                                   f"{w['name']}.{kind}.json")) as fh:
                record = json.load(fh)
            if trace:
                entry["layers"] = record
            else:
                entry["e2e"].append(record)
    path = os.path.join(HERE, "out", "result.json")
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=1)
    print(f"# wrote {os.path.relpath(path, REPO)}; "
          f"{'all outputs correct' if ok else 'SOME OUTPUTS WRONG'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, ~1 s per run: checks the harness, "
                             "measures nothing")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload when running them "
                             "all (compare.py wants several)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(manifest()["run_seconds"])
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
