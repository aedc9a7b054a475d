"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup`, then runs
*units* of work.  A unit is one operation, except on ``stream-online``,
where it is one whole streaming session (one operation per arrival).  Each
unit returns its timed operation latencies, the flows it scheduled to
completion, its timed wall time and how many of its operations failed the
output checks, which run untimed right after the unit.

The workloads call only the public API of ``repro``; see README.md for why
each was chosen and which layer dominates it.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import checks

from repro.analysis import artifacts, report
from repro.analysis.engine import ExperimentEngine
from repro.analysis.runstore import RunStore
from repro.baselines import scheme_from_spec
from repro.circuit.lower_bounds import weighted_transfer_lower_bound
from repro.core import CoflowInstance, topologies
from repro.sim import BatchPolicy, FlowLevelSimulator, StaticPlanReplanner, StreamingScheduler
from repro.workloads import CoflowGenerator, WorkloadConfig

clock = time.perf_counter


@dataclass
class Unit:
    """What one unit of work reports back to the runner."""

    latencies: List[float]
    flows: int
    wall: float
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def widest_bottlenecks(network) -> Tuple[Dict[object, int], np.ndarray]:
    """All-pairs widest-path bottleneck capacity (max over paths of min edge).

    A Floyd-Warshall pass over the (max, min) semiring: the benchmark's own
    computation, used for the transfer lower bound instead of the program's.
    """
    nodes = list(network.nodes())
    index = {node: k for k, node in enumerate(nodes)}
    width = np.zeros((len(nodes), len(nodes)))
    for u, v in network.edges():
        width[index[u], index[v]] = max(width[index[u], index[v]], network.capacity(u, v))
    np.fill_diagonal(width, np.inf)
    for k in range(len(nodes)):
        width = np.maximum(width, np.minimum(width[:, k : k + 1], width[k : k + 1, :]))
    return index, width


def coflow_finish_bounds(instance, index, width) -> List[float]:
    """Per coflow, the max over its flows of release + size / bottleneck."""
    bounds = []
    for coflow in instance.coflows:
        finish = 0.0
        for flow in coflow.flows:
            bound = flow.release_time
            if flow.size > 0:
                bound += flow.size / width[index[flow.source], index[flow.destination]]
            finish = max(finish, bound)
        bounds.append(finish)
    return bounds


def transfer_lower_bound(instance, index, width) -> float:
    """Weighted sum over coflows of max over flows of release + size / bottleneck."""
    finish = coflow_finish_bounds(instance, index, width)
    return sum(coflow.weight * bound for coflow, bound in zip(instance.coflows, finish))


def response_terms(instance, completion, index, width) -> Tuple[float, float]:
    """Weighted response time of the coflows and its transfer bound.

    Returns ``(sum w (C - r), sum w (LB - r))`` over coflows, with ``C`` the
    coflow's last flow completion, ``LB`` its transfer bound and ``r`` the
    release of its last flow: the time from which the whole coflow is known.
    ``C >= LB`` gives ``C - r >= LB - r``, and ``LB - r`` is at least the
    transfer time of that last flow, so the bound is positive.
    """
    finish = coflow_finish_bounds(instance, index, width)
    achieved = bound = 0.0
    for i, coflow in enumerate(instance.coflows):
        release = max(flow.release_time for flow in coflow.flows)
        done = max((completion[(i, j)] for j in range(len(coflow.flows))), default=release)
        achieved += coflow.weight * (done - release)
        bound += coflow.weight * (finish[i] - release)
    return achieved, bound


def by_release(instance: CoflowInstance) -> CoflowInstance:
    """The instance with coflows numbered in order of their release times.

    A stream is submitted in arrival order, and the session numbers coflows
    in submission order, so the static plan must use the same numbering.
    """
    ordered = sorted(instance.coflows, key=lambda coflow: coflow.release_time)
    return CoflowInstance(coflows=ordered, name=instance.name)


class Workload:
    """Common shape: set-up, units, an optional closing step, the ratio."""

    name = ""
    #: The smallest number of operations every untraced run makes.
    min_ops = 40
    #: Untraced runs stop only after a whole round of this many units.
    round_units = 1
    #: Units of each pass of a traced run (fixed, so per-layer totals of two
    #: commits cover the same work).
    trace_units = 10

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        #: Set by a traced run: a span around benchmark code, and a context
        #: that stops recording while the untimed checks call the program.
        self.span: Callable[[str], contextlib.AbstractContextManager] = (
            lambda name: contextlib.nullcontext()
        )
        self.quiet: Callable[[], contextlib.AbstractContextManager] = contextlib.nullcontext
        #: Set by an untraced run: the speed probe, and the rescaling of a
        #: timed region by the probes taken right around it.  A traced run
        #: keeps raw times and takes no probes.
        self.probe: Callable[[], float] = lambda: 0.0
        self.rescale: Callable[..., float] = lambda seconds, *probes: seconds
        self._achieved: Dict[int, float] = {}
        self._bound: Dict[int, float] = {}

    #: Percentile reported as ``op_tail_ms``: the highest one with at least
    #: 10 of ``min_ops`` samples beyond it.
    tail_pct = 75.0

    def setup(self) -> None:
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Prepare a fresh pass of units (a new run store, for instance)."""

    def units_available(self) -> float:
        """How many distinct units a pass can run."""
        return float("inf")

    def layer_counts(self) -> Dict[str, float]:
        """Per-layer figures the workload reads itself, over the last pass."""
        return {}

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def close(self) -> Unit:
        """Timed closing step of a pass (the sweep's warm report read)."""
        return Unit([], 0, 0.0)

    def cleanup(self) -> None:
        """Remove what the workload wrote under its work directory."""

    def checker(self) -> Tuple[checks.EdgeTable, Tuple[Dict[object, int], np.ndarray]]:
        """Edge table and widest-path bottlenecks for the checks, built once."""
        if not hasattr(self, "_checker"):
            self._checker = (checks.EdgeTable(self.network), widest_bottlenecks(self.network))
        return self._checker

    def objective_ratio(self) -> float:
        """Summed achieved objective over summed lower bound, per distinct input."""
        return sum(self._achieved.values()) / sum(self._bound.values())


# ------------------------------------------------------------------ static

class StaticWorkload(Workload):
    """One ``Scheme.simulate`` per operation over a pool of seeded instances."""

    topology: Tuple[int, int, int] = (0, 0, 0)
    scheme_spec = ""
    pool_size = 40

    def config(self) -> WorkloadConfig:
        raise NotImplementedError

    def setup(self) -> None:
        self.network = topologies.leaf_spine(*self.topology)
        self.simulator = FlowLevelSimulator(self.network, backend="jit")
        self.scheme = scheme_from_spec(self.scheme_spec)
        generator = CoflowGenerator(self.network, self.config())
        self.pool = [generator.instance(seed_offset=k) for k in range(self.pool_size)]
        warm_up = generator.instance(seed_offset=self.pool_size)
        self._fingerprints: Dict[int, tuple] = {}
        self.scheme.simulate(warm_up, self.network, self.simulator)
        gc.collect()

    def unit(self, index: int) -> Unit:
        k = index % self.pool_size
        instance = self.pool[k]
        before = self.probe()
        started = clock()
        result = self.scheme.simulate(instance, self.network, self.simulator)
        latency = clock() - started
        latency = self.rescale(latency, before, self.probe())
        with self.quiet():
            problems = self._check(k, instance, result)
        del result
        gc.collect()
        return Unit([latency], instance.num_flows, latency, int(bool(problems)), problems)

    def _check(self, k: int, instance, result) -> List[str]:
        if k in self._fingerprints:
            if checks.fingerprint(result) != self._fingerprints[k]:
                return [f"instance {k}: repeat differs from its first checked result"]
            return []
        edges, widest = self.checker()
        bound = transfer_lower_bound(instance, *widest)
        problems = checks.check_result(instance, result, edges, [("transfer", bound)])
        if k == 0:
            program_bound = weighted_transfer_lower_bound(instance, self.network)
            if abs(program_bound - bound) > checks.REL_TOL * bound:
                problems.append(f"transfer bound {bound!r} != program's {program_bound!r}")
        self._fingerprints[k] = checks.fingerprint(result)
        self._achieved[k] = result.weighted_completion_time
        self._bound[k] = bound
        return problems


class StaticFabric(StaticWorkload):
    """SEBF on the 128-host leaf-spine fabric: routing dominates."""

    name = "static-fabric"
    topology = (8, 8, 16)
    scheme_spec = "pipeline(router=balanced, order=sebf)"

    def config(self) -> WorkloadConfig:
        return WorkloadConfig(
            num_coflows=24, coflow_width=25, mean_flow_size=6.0, release_rate=1.0,
            coflow_arrival_rate=0.5, seed=1000 * self.seed,
        )


class StaticDense(StaticWorkload):
    """Random routing + SEBF on a backlogged 16-host fabric: the kernel dominates."""

    name = "static-dense"
    topology = (4, 2, 4)
    scheme_spec = "pipeline(router=random, order=sebf)"
    pool_size = 16
    trace_units = 16

    def config(self) -> WorkloadConfig:
        return WorkloadConfig(
            num_coflows=240, coflow_width=25, mean_flow_size=6.0, release_rate=None,
            seed=1000 * self.seed,
        )


# --------------------------------------------------------------- streaming

class StreamOnline(Workload):
    """Per-arrival re-planning in a resident jit session under a fixed SEBF plan.

    The stream is stationary: coflows arrive at a rate the fabric's
    uplinks carry at about 60% load, and each coflow's flows trickle in
    over about 500 time units, so about 20 coflows are live at a time.  An
    overloaded stream (``specs/streaming-100k.yaml`` loads the uplinks
    fully) grows its live set without bound, which makes the cost of an
    arrival depend on the stream's length and on the seed.
    """

    name = "stream-online"
    min_ops = 1000
    #: Not p99: the slowest 1% of millisecond operations are the moments
    #: the VM stalls, and their p99 moved by 18% between runs of one code.
    tail_pct = 90.0
    trace_units = 3
    num_coflows = 1000
    probe_block = 50

    def setup(self) -> None:
        self.network = topologies.leaf_spine(4, 2, 4)
        config = WorkloadConfig(
            num_coflows=self.num_coflows, coflow_width=25, mean_flow_size=6.0,
            release_rate=0.05, coflow_arrival_rate=0.04, seed=1000 * self.seed,
        )
        self.stream = by_release(CoflowGenerator(self.network, config).instance())
        self.plan = scheme_from_spec("SEBF").plan(self.stream, self.network)
        self._fingerprint: Optional[tuple] = None
        warm_up = self._session()
        first = self.stream.coflows[0]
        warm_up.submit(first)
        warm_up.advance(until=first.release_time)
        del warm_up
        gc.collect()

    def begin_pass(self) -> None:
        self.session_metrics = []

    def layer_counts(self) -> Dict[str, float]:
        # The session's own timer of epoch set-up (patch and harvest).
        return {
            "stream.epoch_setup_s": sum(
                m["epoch_setup_seconds"] * m["replans"] for m in self.session_metrics
            )
        }

    def _session(self) -> StreamingScheduler:
        return StreamingScheduler(
            self.network,
            StaticPlanReplanner(self.plan),
            policy=BatchPolicy(max_batch=1),
            backend="jit",
            resident=True,
            name="SEBF",
        )

    def unit(self, index: int) -> Unit:
        session = self._session()
        latencies: List[float] = []
        coflows = self.stream.coflows
        # Operations of about a millisecond are rescaled by probes around
        # each block of them, so a speed change within the session is seen.
        for start in range(0, len(coflows), self.probe_block):
            block = []
            before = self.probe()
            for coflow in coflows[start : start + self.probe_block]:
                started = clock()
                session.submit(coflow)
                session.advance(until=coflow.release_time)
                block.append(clock() - started)
            after = self.probe()
            latencies += [self.rescale(latency, before, after) for latency in block]
        before = self.probe()
        started = clock()
        result = session.finish()
        wall = sum(latencies) + self.rescale(clock() - started, before, self.probe())
        self.session_metrics.append(session.streaming_metrics())
        with self.quiet():
            problems = self._check(result)
        del result, session
        gc.collect()
        failed = len(latencies) if problems else 0
        return Unit(latencies, self.stream.num_flows, wall, failed, problems)

    def _check(self, result) -> List[str]:
        if self._fingerprint is not None:
            if checks.fingerprint(result) != self._fingerprint:
                return ["session differs from the first checked session"]
            return []
        edges, widest = self.checker()
        bound = transfer_lower_bound(self.stream, *widest)
        problems = checks.check_result(self.stream, result, edges, [("transfer", bound)])
        # The anchor property: the resident stream under the fixed plan is
        # the static simulation of that plan, exactly.
        static = FlowLevelSimulator(self.network, backend="jit").run(self.stream, self.plan)
        if static.flow_completion != result.flow_completion:
            problems.append("stream completions differ from the static simulation of its plan")
        if static.flow_start != result.flow_start:
            problems.append("stream start times differ from the static simulation of its plan")
        self._fingerprint = checks.fingerprint(result)
        # Coflows arrive over about 25,000 time units and each one's flows
        # over about 500, against transfers of about 6 units, so completion
        # times are mostly release times and their ratio reads 1.000
        # whatever the schedule.  The ratio is over response times from the
        # release of each coflow's last flow instead.
        self._achieved[0], self._bound[0] = response_terms(
            self.stream, result.flow_completion, *widest
        )
        return problems


# ------------------------------------------------------------------- sweep

class PaperSweep(Workload):
    """The paper's four schemes over a Figure-4-shaped sweep, through the engine."""

    name = "paper-sweep"
    #: Ten tries of the eight points.  objective_ratio covers these cells;
    #: over five tries it spread 3-6% across seeds, over ten 2-4%.
    min_ops = 80
    tail_pct = 87.5
    trace_units = 16
    #: Eight points, so that cell latencies form one hump, not a few.
    num_coflows = (4, 5, 6, 7, 8, 9, 10, 11)
    #: A run ends on a whole try, so every run holds the same mix of points.
    round_units = len(num_coflows)
    tries = 40

    def setup(self) -> None:
        self.spec = artifacts.spec_from_dict(
            {
                "name": "paper-sweep",
                "title": "Figure 4 shape: number-of-coflows sweep",
                "schemes": list(artifacts.DEFAULT_SCHEMES),
                "tries": self.tries,
                "reference": "Baseline",
                "base": {
                    "topology": "fat_tree(k=4)",
                    "coflow_width": 6,
                    "mean_flow_size": 8.0,
                    "release_rate": 4.0,
                    "seed": 1000 * self.seed,
                },
                "sweep": {
                    "parameter": "num_coflows",
                    "values": list(self.num_coflows),
                    "label": "{value} coflows",
                },
            }
        )
        self.network = topologies.from_spec("fat_tree(k=4)")
        self.points = self.spec.point_specs()
        self._pass = 0
        # One untimed warm-up cell, on a try beyond the grid and an
        # in-memory store.
        label, configs = self.points[0]
        extra = configs[0].with_seed(configs[0].seed + self.tries)
        warm_engine = self._engine(None)
        warm_engine.execute_pending(warm_engine.tasks_for([(label, [extra])]))
        del warm_engine
        gc.collect()

    def _engine(self, store) -> ExperimentEngine:
        engine = ExperimentEngine(
            self.network, artifacts.build_schemes(self.spec.schemes),
            tries=self.spec.tries, store=RunStore(store), workers=None,
        )
        self._captured: List[tuple] = []
        for scheme in engine.schemes:
            scheme.simulate = self._capturing(scheme, scheme.simulate)
        return engine

    def _capturing(self, scheme, simulate):
        """Keep each result (and LP-Based's LP bound) for the untimed checks."""

        def wrapper(instance, network, simulator=None):
            result = simulate(instance, network, simulator)
            plan = getattr(scheme, "last_plan", None) if scheme.name == "LP-Based" else None
            self._captured.append((scheme.name, instance, result, plan))
            return result

        return wrapper

    def begin_pass(self) -> None:
        self._pass += 1
        self.store_path = self.work_dir / f"pass{self._pass}" / "runs.jsonl"
        shutil.rmtree(self.store_path.parent, ignore_errors=True)
        self.engine = self._engine(self.store_path)
        tasks = self.engine.tasks_for(self.points)
        cells: Dict[Tuple[int, int], list] = {}
        for task in tasks:
            cells.setdefault((task.trial, task.point_index), []).append(task)
        # Try-major order, so any prefix of cells covers every point.
        self.cells = [cells[key] for key in sorted(cells)]

    def units_available(self) -> float:
        return len(self.cells)

    def layer_counts(self) -> Dict[str, float]:
        return {"analysis.store_bytes": self.store_bytes, "analysis.cache_hits": self.cache_hits}

    def unit(self, index: int) -> Unit:
        tasks = self.cells[index]
        self._captured = []
        before = self.probe()
        started = clock()
        self.engine.execute_pending(tasks)
        latency = self.rescale(clock() - started, before, self.probe())
        with self.quiet():
            problems = self._check(index, tasks, self._captured)
        flows = sum(instance.num_flows for _n, instance, _r, _p in self._captured)
        self._captured = []
        gc.collect()
        return Unit([latency], flows, latency, int(bool(problems)), problems)

    def _check(self, index: int, tasks, captured) -> List[str]:
        problems: List[str] = []
        if len(captured) != len(tasks):
            return [f"cell {index}: {len(captured)} results for {len(tasks)} tasks"]
        lp_bounds = [plan.lower_bound for name, _i, _r, plan in captured if name == "LP-Based"]
        if len(lp_bounds) != 1:
            return [f"cell {index}: no LP-Based lower bound"]
        edges, widest = self.checker()
        bound = transfer_lower_bound(captured[0][1], *widest)
        for task, (name, instance, result, _plan) in zip(tasks, captured):
            record = self.engine.store.peek(task.key)
            if record is None or record.get("failed"):
                problems.append(f"cell {index}: {name} has no stored result")
                continue
            if record["metrics"]["weighted_completion_time"] != result.weighted_completion_time:
                problems.append(f"cell {index}: {name} stored objective differs from its result")
            problems += checks.check_result(
                instance, result, edges, [("transfer", bound), ("routing LP", lp_bounds[0])]
            )
            # The ratio covers the first min_ops cells, which every untraced
            # run completes, so that it repeats exactly.
            if name == "LP-Based" and self._pass == 1 and index < self.min_ops:
                self._achieved[index] = result.weighted_completion_time
                self._bound[index] = lp_bounds[0]
        return problems

    def close(self) -> Unit:
        """Warm read: reload the store from disk, aggregate, render."""
        before = self.probe()
        started = clock()
        with self.span("analysis.replay"):
            warm_store = RunStore(self.store_path)
            warm, missing, _ = artifacts.result_from_store(self.spec, warm_store)
        warm_report = report.render_report(
            warm, self.spec.display_title(), reference=self.spec.reference
        )
        wall = self.rescale(clock() - started, before, self.probe())
        self.cache_hits = self.spec.total_tasks() - missing
        self.store_bytes = self.store_path.stat().st_size
        with self.quiet():
            cold, _, _ = artifacts.result_from_store(self.spec, self.engine.store)
            cold_report = report.render_report(
                cold, self.spec.display_title(), reference=self.spec.reference
            )
        problems = [] if warm_report == cold_report else ["warm replay report differs from the cold one"]
        return Unit([], 0, wall, 0, problems)

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (StaticFabric, StaticDense, StreamOnline, PaperSweep)}
