"""Append points to the BENCH trajectory: end-to-end medians per workload.

    python benchmarks/trajectory.py [--checkout DIR ...] [--workload NAME ...]
        [--runs N] [--seed N] [--label TEXT ...]

Runs ``perfbench/run.py --trace 0`` of each checkout (default: the one this
script is in) N times (default 10) on each workload of ``BENCHMARK.json``,
for its ``run_seconds``, alternating the checkouts run by run and which of
them goes first, so that pairs of runs share the machine's phase.
Then it appends one point per checkout and workload to
``BENCH_<workload>.json`` at the root of this repository: the median and
quartiles of each end-to-end metric over the runs, every run's value, the
git SHA and source hash perfbench reports, whether the checkout's ``src/``
differs from its HEAD, and perfbench's record of the machine.

``--workload`` picks some of those workloads.  A run that perfbench
marks incorrect or that exits non-zero is kept in the point (``correct``,
``failed_runs``) but not in the medians.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", action="append", type=Path,
                   help="checkout to measure (repeat to alternate several)")
    p.add_argument("--workload", action="append",
                   help="workload name (default: all in BENCHMARK.json)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--label", action="append",
                   help="label of each checkout's point, in --checkout order")
    return p


def run_once(checkout, workload, seed, seconds):
    """One perfbench run: (environment record, final JSON line or None)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return env, None
    return env, json.loads(lines[-1])


def src_differs_from_head(checkout):
    """True if src/ has changes against HEAD, None outside a git checkout."""
    done = subprocess.run(["git", "-C", str(checkout), "status",
                           "--porcelain", "--", "src"],
                          capture_output=True, text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def point(label, checkout, runs, seed, seconds):
    """The trajectory point of one checkout from its (env, result) runs."""
    good = [r for _, r in runs if r is not None and r["correct"]]
    names = sorted(good[0]["metrics"]) if good else []
    values = {n: [r["metrics"][n]["value"] for r in good] for n in names}

    def quartiles(vs):
        vs = [v for v in vs if v is not None]
        if len(vs) < 2:
            return (vs or [None]) * 3
        q1, q2, q3 = statistics.quantiles(vs, n=4, method="inclusive")
        return q1, q2, q3

    stats = {n: quartiles(values[n]) for n in names}
    env = next((e for e, _ in runs if e is not None), {})
    return {
        "label": label,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_sha": env.get("git_sha"),
        "src_sha256": env.get("src_sha256"),
        "src_differs_from_head": src_differs_from_head(checkout),
        "seed": seed,
        "seconds": seconds,
        "runs": len(runs),
        "failed_runs": len(runs) - len(good),
        "correct": len(good) == len(runs),
        "median": {n: stats[n][1] for n in names},
        "q1": {n: stats[n][0] for n in names},
        "q3": {n: stats[n][2] for n in names},
        "values": values,
        "units": {n: good[0]["metrics"][n]["unit"] for n in names},
        "env": env,
    }


def append_point(workload, new):
    path = ROOT / f"BENCH_{workload}.json"
    points = json.loads(path.read_text()) if path.exists() else []
    points.append(new)
    path.write_text(json.dumps(points, indent=1) + "\n")
    return path


def main(argv=None):
    args = _parser().parse_args(argv)
    checkouts = [c.resolve() for c in (args.checkout or [ROOT])]
    labels = args.label or [c.name for c in checkouts]
    if len(labels) != len(checkouts):
        raise SystemExit("trajectory: give one --label per --checkout")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        runs = {c: [] for c in checkouts}
        for i in range(args.runs):
            # alternate which checkout runs first, pair by pair
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for c in order:
                runs[c].append(run_once(c, workload, args.seed, seconds))
                result = runs[c][-1][1]
                print(f"{workload} run {i} {c}: "
                      + ("failed" if result is None else json.dumps(
                          {k: v["value"] for k, v in
                           result["metrics"].items()})), flush=True)
        for c, label in zip(checkouts, labels):
            new = point(label, c, runs[c], args.seed, seconds)
            print(f"appended {label} to {append_point(workload, new)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
