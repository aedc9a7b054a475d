"""In-memory span recorder that wraps the program's layer entry points.

A traced run replaces selected functions and methods of the ``repro``
package with thin wrappers for the life of the process.  Each call records
a span (name, start, end, parent) and, optionally, counts read from its
arguments or result.  Nothing inside ``src/`` changes; the wrappers live
here, in the benchmark.

A layer's self time is the total duration of its spans minus the time
covered by their child spans.  The program runs single-threaded, so child
spans nest strictly inside their parent and the covered time is the sum of
the children's durations.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Record spans and counts at the wrapped layer boundaries."""

    def __init__(self) -> None:
        #: [name, start, end, parent index] per span, in start order.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Wrappers record only while this is true (see :meth:`paused`).
        self.active = True
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping
    def wrap(self, owner: Any, attr: str, name: str, hook: Optional[Hook] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class or a module.  A missing attribute (the entry
        point was renamed or moved) or one this wrapper cannot stand in for
        (a static or class method) ends the run: a layer that is not traced
        would read 0, which every "lower is better" layer metric would show
        as a gain.
        """
        where = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            raise SystemExit(f"error: cannot trace {name}: {where} does not exist")
        if isinstance(original, (staticmethod, classmethod)) or not callable(original):
            raise SystemExit(f"error: cannot trace {name}: {where} is not a plain function")
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute and stop recording for good."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        if not self.active:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        """Call through the wrappers without recording (untimed checks)."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    # -------------------------------------------------------------- reports
    def self_times(self, since: int = 0) -> Dict[str, float]:
        """Self time per span name, in seconds, over spans from index ``since``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index in range(since, len(self.spans)):
            name, start, end, _parent = self.spans[index]
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def write_chrome(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": index, "parent": parent},
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _count_lp(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    lp = args[0] if args else kwargs["lp"]
    tracer.count("lp.solves")
    tracer.count("lp.rows", lp.num_constraints)
    tracer.count("lp.nnz", lp.num_entries)


def _count_events(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # The jit kernel falls back to the array kernel's run for some
    # allocators; count the events of the outer span only.
    stack = tracer._stack
    if not stack or tracer.spans[stack[-1]][0] != "sim.run":
        tracer.count("sim.events", args[0].events)


def _count_replan(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("stream.replans")
    tracer.count("stream.live_flows", len(args[1].fid_map))


def _count_candidate_paths(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("core.candidate_paths_calls")


def install_layer_hooks(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports.

    Where a layer's function is imported by name into its caller (the LP
    ``solve`` inside ``circuit.routing``, ``make_kernel`` inside
    ``sim.simulator``), the name in the caller's module is wrapped.  Layers
    without an entry point of their own are the self time of their nearest
    public caller: ``circuit.relax`` is ``RoutingLP.relax`` less assembly
    and solve (solution extraction), ``circuit.round`` is
    ``PathsNotGivenScheduler.route`` less the relaxation (decomposition and
    rounding), and ``sim.assemble`` is ``FlowLevelSimulator.run`` less
    kernel construction and run (plan validation and result assembly).
    """
    from repro.analysis import artifacts, report
    from repro.analysis.engine import ExperimentEngine
    from repro.analysis.runstore import RunStore
    from repro.baselines.stages import ORDERERS, ROUTERS
    from repro.circuit import routing
    from repro.circuit.algorithm import PathsNotGivenScheduler
    from repro.core.network import Network
    from repro.sim import simulator
    from repro.sim.kernel import SimulationKernel
    from repro.sim.kernel_jit import JitSimulationKernel
    from repro.sim.streaming import StaticPlanReplanner, StreamingScheduler
    from repro.workloads.generator import CoflowGenerator

    tracer.wrap(CoflowGenerator, "instance", "workloads.generate")
    for router in ROUTERS.values():
        tracer.wrap(router, "route", "baselines.route")
    for orderer in ORDERERS.values():
        tracer.wrap(orderer, "order", "baselines.order")
    tracer.wrap(Network, "candidate_paths", "core.candidate_paths", _count_candidate_paths)
    tracer.wrap(PathsNotGivenScheduler, "route", "circuit.round")
    tracer.wrap(routing.RoutingLP, "relax", "circuit.relax")
    tracer.wrap(routing.RoutingLP, "build", "lp.assemble")
    tracer.wrap(routing, "solve", "lp.solve", _count_lp)
    tracer.wrap(simulator.FlowLevelSimulator, "run", "sim.assemble")
    tracer.wrap(simulator, "make_kernel", "sim.construct")
    tracer.wrap(SimulationKernel, "run", "sim.run", _count_events)
    tracer.wrap(JitSimulationKernel, "run", "sim.run", _count_events)
    tracer.wrap(StreamingScheduler, "submit", "stream.submit")
    tracer.wrap(StreamingScheduler, "advance", "stream.session")
    tracer.wrap(StreamingScheduler, "finish", "stream.finish")
    tracer.wrap(StaticPlanReplanner, "__call__", "stream.replan", _count_replan)
    tracer.wrap(ExperimentEngine, "execute_pending", "analysis.engine")
    tracer.wrap(RunStore, "put", "analysis.store_put")
    tracer.wrap(artifacts, "result_from_store", "analysis.replay")
    tracer.wrap(report, "render_report", "analysis.report")
