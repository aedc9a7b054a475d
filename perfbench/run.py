"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload static-fabric --seed 1 --seconds 15 --trace 0

``--trace 0`` sets up the workload, runs operations for ``--seconds`` of
wall-clock time (and at least the workload's minimum operation count),
checks every output, and prints the end-to-end metrics.  ``--trace 1``
runs a fixed number of units twice, first with every layer's entry point
wrapped in spans and then without, and prints the per-layer metrics;
``--trace-file`` also writes the spans as Chrome trace-event JSON.

The last line of standard output is the result object; progress, problems
and the per-layer table go to standard error.
"""

from __future__ import annotations

import time

# Set-up time counts from here, before every import below.  It is raw
# wall-clock time, not rescaled: set-up is mostly imports and allocation,
# which do not track the interpreter probe, and probes taken in a fresh
# process read up to 1.5x apart between processes whose set-up took the
# same time (12 set-ups of one workload spread 5-7% raw, 17-22% rescaled).
_SETUP_STARTED = time.perf_counter()

import statistics


def speed_probe() -> float:
    """Seconds taken by a fixed piece of interpreter work (dict updates, a sort).

    On shared VMs the CPU speed drifts by up to 2x within seconds, so every
    timed operation is rescaled by probes taken right around it; see
    :func:`rescale`.
    """
    started = time.perf_counter()
    table = {}
    for j in range(40000):
        table[j & 1023] = table.get(j & 1023, 0) + j
    sorted(table.values())
    return time.perf_counter() - started


#: What :func:`speed_probe` takes on the reference machine: a 2-vCPU VM at
#: its fast state.  Reported times are times on that machine.
PROBE_REFERENCE_S = 0.005


def rescale(seconds: float, *probes: float) -> float:
    """``seconds`` as they would read at the reference speed."""
    return seconds * PROBE_REFERENCE_S * len(probes) / sum(probes)


import argparse
import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"

#: Thread-pool sizes of numpy's BLAS and OpenMP runtimes, capped at the
#: CPUs this process may use.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("static-fabric", "static-dense", "stream-online", "paper-sweep")
#: Set-up runs, each in its own process, whose median is ``setup_s``.
SETUP_RUNS = 3
#: (name, span) of every per-layer time metric read from span self times.
LAYER_TIMES = (
    ("workloads.generate_s", "workloads.generate"),
    ("baselines.route_s", "baselines.route"),
    ("core.candidate_paths_s", "core.candidate_paths"),
    ("baselines.order_s", "baselines.order"),
    ("circuit.relax_s", "circuit.relax"),
    ("lp.assemble_s", "lp.assemble"),
    ("lp.solve_s", "lp.solve"),
    ("circuit.round_s", "circuit.round"),
    ("sim.construct_s", "sim.construct"),
    ("sim.run_s", "sim.run"),
    ("sim.assemble_s", "sim.assemble"),
    ("stream.submit_s", "stream.submit"),
    ("stream.replan_s", "stream.replan"),
    ("stream.session_s", "stream.session"),
    ("stream.finish_s", "stream.finish"),
    ("analysis.engine_s", "analysis.engine"),
    ("analysis.store_put_s", "analysis.store_put"),
    ("analysis.replay_s", "analysis.replay"),
    ("analysis.report_s", "analysis.report"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path, default=None,
                        help="with --trace 1, also write Chrome trace-event JSON here")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    return parser.parse_args(argv)


def configure_environment() -> int:
    """Thread caps, and every cache and temporary file under the work dir."""
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ["REPRO_JIT_CACHE"] = str(WORK / "jit")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    # A missing compiler would silently run the array kernel instead.
    warnings.filterwarnings("error", message=".*'jit' simulator backend is unavailable.*")
    return threads


def load_jit() -> bool:
    """Load the compiled kernel; return whether it had to be compiled first."""
    from repro.sim import kernel_jit

    before = set((WORK / "jit").glob("*.so"))
    if not kernel_jit.available():
        raise SystemExit(f"error: jit kernel unavailable: {kernel_jit.unavailable_reason()}")
    return bool(set((WORK / "jit").glob("*.so")) - before)


def run_units(workload, count=None, seconds=None, min_ops=0):
    """Run ``count`` units, or whole rounds for ``seconds`` of wall time and ``min_ops``.

    The time limit is raw wall-clock time, checks included, so that a run's
    length does not depend on the machine's speed; ``wall`` sums the
    rescaled timed regions only.
    """
    latencies, flows, wall, failed, problems = [], 0, 0.0, 0, []
    index = 0
    started = time.perf_counter()
    while True:
        if count is not None and index >= count:
            break
        if (count is None and time.perf_counter() - started >= seconds
                and len(latencies) >= min_ops and index % workload.round_units == 0):
            break
        if index >= workload.units_available():
            break
        unit = workload.unit(index)
        latencies += unit.latencies
        flows += unit.flows
        wall += unit.wall
        failed += unit.failed
        problems += unit.problems
        index += 1
    closing = workload.close()
    wall += closing.wall
    return latencies, flows, wall, failed, problems, closing.problems


def setup_probes(args) -> list:
    """Set-up times of fresh processes running this workload's set-up."""
    times = []
    for _ in range(SETUP_RUNS - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=str(ROOT),
        )
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def report_problems(problems) -> None:
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more", file=sys.stderr)


def layer_metrics(tracer, extra, pass_start, traced_wall, untraced_wall, ops):
    times = tracer.self_times()
    counts = tracer.counts
    metrics = {name: (times.get(span, 0.0), "s") for name, span in LAYER_TIMES}
    events = counts.get("sim.events", 0.0)
    replans = counts.get("stream.replans", 0.0)
    metrics.update(
        {
            "core.candidate_paths_calls": (counts.get("core.candidate_paths_calls", 0.0), "count"),
            "lp.solves": (counts.get("lp.solves", 0.0), "count"),
            "lp.rows": (counts.get("lp.rows", 0.0), "count"),
            "lp.nnz": (counts.get("lp.nnz", 0.0), "count"),
            "sim.events": (events, "count"),
            "sim.events_per_run_s": (events / metrics["sim.run_s"][0] if events else 0.0, "1/s"),
            "stream.replans": (replans, "count"),
            "stream.epoch_setup_s": (extra.get("stream.epoch_setup_s", 0.0), "s"),
            "stream.live_flows_mean": (
                counts.get("stream.live_flows", 0.0) / replans if replans else 0.0, "flows"),
            "analysis.store_bytes": (extra.get("analysis.store_bytes", 0.0), "bytes"),
            "analysis.cache_hits": (extra.get("analysis.cache_hits", 0.0), "count"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.unattributed_s": (
                traced_wall - sum(tracer.self_times(pass_start).values()), "s"),
        }
    )
    pass_times = tracer.self_times(pass_start)
    print(f"traced pass: {ops} operations, {traced_wall:.3f} s timed "
          f"(untraced {untraced_wall:.3f} s); share = pass self time / traced wall",
          file=sys.stderr)
    print(f"{'layer':24s} {'set-up s':>10s} {'pass s':>10s} {'share':>7s}", file=sys.stderr)
    for name, span in LAYER_TIMES:
        total, in_pass = times.get(span, 0.0), pass_times.get(span, 0.0)
        if total:
            print(f"{span:24s} {total - in_pass:10.4f} {in_pass:10.4f} "
                  f"{100 * in_pass / traced_wall:6.1f}%", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = configure_environment()
    import numpy as np  # after the thread caps are set

    import suite

    started = time.perf_counter()
    built = load_jit()
    build_s = time.perf_counter() - started if built else 0.0
    workload = suite.WORKLOADS[args.workload](args.seed, WORK / f"{args.workload}-{os.getpid()}")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install_layer_hooks(tracer)
        workload.span, workload.quiet = tracer.span, tracer.paused
    try:
        workload.setup()
        workload.begin_pass()
        setup_s = time.perf_counter() - _SETUP_STARTED - build_s
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"{args.workload}: seed {args.seed}, set-up {setup_s:.3f} s, jit "
              f"{'built' if built else 'cached'}, BLAS/OpenMP threads capped at {threads}", file=sys.stderr)
        if tracer is None:
            workload.probe, workload.rescale = speed_probe, rescale
            latencies, flows, wall, failed, problems, closing = run_units(
                workload, seconds=args.seconds, min_ops=workload.min_ops)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ratio = workload.objective_ratio()
            setup_times = [setup_s] + setup_probes(args)
            quantile = float(np.percentile(latencies, workload.tail_pct))
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "flows_per_s": (flows / wall, "flows/s"),
                "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
                "op_tail_ms": (quantile * 1e3, "ms"),
                "objective_ratio": (ratio, "ratio"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            print(f"{len(latencies)} operations in {wall:.3f} s timed; tail = "
                  f"p{workload.tail_pct:g}; set-up runs {setup_times}", file=sys.stderr)
        else:
            pass_start = len(tracer.spans)
            latencies, flows, traced_wall, failed, problems, closing = run_units(
                workload, count=workload.trace_units)
            extra_counts = workload.layer_counts()
            tracer.unwrap_all()
            workload.begin_pass()
            lat2, _f, untraced_wall, failed2, problems2, closing2 = run_units(
                workload, count=workload.trace_units)
            metrics = layer_metrics(tracer, extra_counts, pass_start, traced_wall, untraced_wall,
                                    len(latencies))
            latencies += lat2
            failed += failed2
            problems += problems2
            closing += closing2
            if args.trace_file is not None:
                tracer.write_chrome(args.trace_file)
    finally:
        workload.cleanup()
    report_problems(problems + closing)
    result = {
        "correct": not closing,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
