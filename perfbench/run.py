"""Run one benchmark workload against the mrfrf sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads, their metrics and units are listed in BENCHMARK.json at the
root of the checkout.  The run makes its scenarios from --seed, repeats whole
pipelines for about --seconds seconds (each scenario at least once, and one
of them twice), checks every result against the analytic truth, and prints
one line per metric, then one JSON object as its last line.  With --trace 0
it reports the end-to-end metrics and set-up time; with --trace 1 it
alternates untraced and traced iterations and reports the per-layer metrics
of the traced ones.  The environment, the
per-iteration record and the spans go to .perfbench_out/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HARD_STOP_S = 120   # start no iteration after this, to end within 180 s


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", metavar="WORKDIR", default=None,
                   help=argparse.SUPPRESS)  # set-up probe, see probe_setup
    return p


def _import_sources():
    """Import mrfrf from this checkout's src/, never from anywhere else.

    First pin one BLAS/OpenMP thread and unset the bin-level thread pool,
    before numpy loads: on a 2-core machine, default threading spread the
    noisy preset's identify over 4.0-5.2 s, against 5.0-5.3 s with one
    thread.  Set-up probes inherit the pinning."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MRFRF_THREADS", None)
    if not (SRC / "mrfrf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mrfrf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mrfrf

    if Path(mrfrf.__file__).resolve().parent != SRC / "mrfrf":
        raise SystemExit(f"perfbench: imported mrfrf from {mrfrf.__file__}")


def probe_setup(workload, seed, workdir):
    """Time from spawning a fresh process to its scenario being ready
    (import plus build or load).  time.monotonic is one clock for every
    process on the machine, so the child's stamp is comparable.  setup_s is
    the fastest probe of a run, as stage times are the fastest iteration:
    over ten seeds of noiseless-f3 the median probe spread 30% and moved 24%
    between two sets of runs; the fastest probe spread 9%."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--probe", str(workdir)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout.split()[-1]) - t0


def environment():
    import numpy as np
    import scipy

    from mrfrf import _accel

    git = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numba_enabled": _accel.NUMBA_ENABLED,
        "threads": {v: os.environ.get(v) for v in
                    THREAD_VARS + ("MRFRF_THREADS", "MRFRF_DISABLE_NUMBA")},
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _fastest(values):
    values = [v for v in values if v is not None]
    return min(values) if values else None


def end_to_end(runs, setup_s, attempted, failed):
    """runs: untraced Iterations.

    Stage times are the fastest iteration's.  The 2-core VM this was tuned
    on shares its host, and its speed drifts by up to 1.8x in phases of
    seconds to minutes.  Interference only adds time, so the fastest
    iteration tracks the program's own cost: over five seeds its quartile
    spread was 3%, against 19% for the median.  Accuracy pools the first run
    of each scenario, so it depends on the seed alone."""
    from workloads import accuracy

    first = {}
    for r in runs:
        first.setdefault(r.case, r.sample)
    acc = dict.fromkeys(("p50", "p95", "hi.p95", "resolved_frac"))
    if None not in first.values():
        acc = accuracy(list(first.values()))
    return {
        "setup_s": setup_s,
        "simulate_s": _fastest(r.times.get("simulate_s") for r in runs),
        "identify_s": _fastest(r.times.get("identify_s") for r in runs),
        "pipeline_s": _fastest(r.times.get("pipeline_s") for r in runs
                               if not r.failed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "frf_rel_err.p50": acc["p50"],
        "frf_rel_err.p95": acc["p95"],
        "frf_rel_err.hi.p95": acc["hi.p95"],
        "resolved_frac": acc["resolved_frac"],
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(tracer, traced, untraced):
    from spans import fit_durations_ms, layer_metrics

    per_it = [layer_metrics(tracer.spans, i) for i, _ in traced]
    metrics = {k: _median(m[k] for m in per_it) for k in per_it[0]}
    fits_ms = fit_durations_ms(tracer.spans)
    q = (statistics.quantiles(fits_ms, n=100) if len(fits_ms) > 1
         else [0.0] * 99)
    metrics["lrm.fit_ms.p50"], metrics["lrm.fit_ms.p99"] = q[49], q[98]
    metrics["lrm.fallback_frac"] = _median(
        r.fallbacks / m["lrm.fit_calls"] if m["lrm.fit_calls"] else 0.0
        for (_, r), m in zip(traced, per_it))
    t_traced = _fastest(r.times.get("pipeline_s") for _, r in traced)
    t_plain = _fastest(r.times.get("pipeline_s") for r in untraced)
    metrics["trace.overhead_frac"] = (t_traced / t_plain - 1.0
                                      if t_traced and t_plain else None)
    return metrics


def main(argv=None):
    args = _parser().parse_args(argv)
    _import_sources()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.probe is not None:
        workload.setup(args.seed, args.probe)
        print(repr(time.monotonic()))
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    tracer = spans.Tracer()
    runs = []           # (iteration index, Iteration, traced)
    # Every scenario once, then once more so that the repeat checks have
    # something to compare; further iterations fill --seconds.
    min_iterations = workloads.CASES + 1
    try:
        cases = workload.prepare(args.seed, str(workdir))
        probes = []     # set-up times, spread over the run like the stages
        start = time.perf_counter()
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed > HARD_STOP_S or (len(runs) >= min_iterations and
                                         elapsed + last > args.seconds):
                break
            i = len(runs)
            traced = bool(args.trace) and i % 2 == 1
            t0 = time.perf_counter()
            if traced:
                tracer.install(i)
            try:
                it = workload.run_iteration(cases, i, tracer)
            finally:
                tracer.uninstall()
            last = time.perf_counter() - t0
            runs.append((i, it, traced))
            if not args.trace:
                probes.append(probe_setup(workload.name, args.seed, workdir))
        while not args.trace and len(probes) < SETUP_PROBES:
            probes.append(probe_setup(workload.name, args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(it.steps) for _, it, _ in runs)
    failed = sum(it.failed for _, it, _ in runs)
    if args.trace:
        values = per_layer(tracer, [(i, it) for i, it, t in runs if t],
                           [it for _, it, t in runs if not t])
    else:
        values = end_to_end([it for _, it, _ in runs], _fastest(probes),
                            attempted, failed)
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(names)}")

    env = environment()
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "setup_probes_s": probes,
        "iterations": [{"index": i, "case": it.case, "traced": t,
                        "times": it.times, "fallbacks": it.fallbacks,
                        "steps": it.steps} for i, it, t in runs],
        "metrics": values,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        tracer.write(OUT / f"spans-{tag}.json")

    print("env " + json.dumps(env, sort_keys=True))
    for i, it, t in runs:
        for step, err in it.steps:
            if err is not None:
                print(f"FAILED iteration {i} step {step}: {err}")
    for m in wanted:
        print(f"{m['name']:<28} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
