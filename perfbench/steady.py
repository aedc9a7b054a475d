"""Check that the benchmark is steady: run each workload N times and compare.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10

Every workload of BENCHMARK.json runs ``--runs`` times, for the benchmark's
own ``run_seconds``.  Run ``i`` of a workload uses seed ``--seed-base + i``;
rounds alternate the order of the workloads.  For every end-to-end metric
the command prints the median, the quartiles, the interquartile spread and
the full spread ((max - min) / median), both as shares of the median, next
to the metric's bound from BENCHMARK.json.  A metric is flagged ``WIDE``
when its interquartile spread exceeds a third of its bound and ``OVER``
when it exceeds the bound (``setup_s`` is flagged on the same rule, though
only its median is compared between sets of runs).  The command exits 1
when any metric is flagged.  ``--out`` keeps every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(bench, results) -> bool:
    steady = True
    for workload, runs in results.items():
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share {sorted(shares)}, "
              f"correct {all(run['correct'] for run in runs)}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
        for metric in bench["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            iqr = (q3 - q1) / median
            full = (max(values) - min(values)) / median
            bound = metric["bound"]
            flag = "OVER" if iqr > bound else "WIDE" if iqr > bound / 3 else ""
            steady = steady and not flag
            print(f"  {metric['name']:18s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{iqr:8.4f} {full:9.4f} {bound:6.3f} {flag}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {name: [] for name in names}
    for i in range(args.runs):
        for name in names if i % 2 == 0 else reversed(names):
            seed = args.seed_base + i
            result = run_once(bench["command"], name, seed, seconds)
            results[name].append(result)
            print(f"run {i} {name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))
    return 0 if summarise(bench, results) else 1


if __name__ == "__main__":
    sys.exit(main())
