"""Output checks, computed apart from the program.

Every function here recomputes a property of a simulation result from the
result's raw schedule (paths and constant-rate bandwidth segments), the
instance and the network, with its own arithmetic.  None of them calls the
program's validators or objective helpers, so a fault there cannot hide a
fault in the schedule.  Each returns a list of problems; empty means the
output passed.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple

import numpy as np

#: Relative slack for float comparisons (volumes, rates, objectives).
REL_TOL = 1e-6
#: Segment boundaries closer than this are one boundary.
TIME_EPS = 1e-9


class EdgeTable:
    """Dense edge ids and capacities of a network, read once."""

    def __init__(self, network) -> None:
        self.index: Dict[Tuple[Hashable, Hashable], int] = {}
        capacities = []
        for u, v in network.edges():
            self.index[(u, v)] = len(capacities)
            capacities.append(network.capacity(u, v))
        self.capacity = np.asarray(capacities, dtype=float)


def check_schedule(instance, result, edges: EdgeTable) -> List[str]:
    """Capacity, volume, release and completion checks on one result.

    * the summed rate on every edge is within its capacity right after
      every segment boundary;
    * every flow delivers exactly its size, on a path joining its
      endpoints, with no volume before its release time;
    * each flow's reported completion time is the end of its last segment.
    """
    problems: List[str] = []
    schedule = result.schedule
    completion = result.flow_completion
    seg_flow: List[int] = []
    seg_start: List[float] = []
    seg_end: List[float] = []
    seg_rate: List[float] = []
    edge_ptr = [0]
    edge_ids: List[int] = []
    sizes: List[float] = []
    releases: List[float] = []
    flow_ids = []
    for i, j, flow in instance.iter_flows():
        fid = (i, j)
        k = len(flow_ids)
        flow_ids.append(fid)
        sizes.append(flow.size)
        releases.append(flow.release_time)
        path = schedule.path(fid)
        if path[0] != flow.source or path[-1] != flow.destination:
            problems.append(f"flow {fid}: path {path[0]}->{path[-1]} does not join its endpoints")
        for u, v in zip(path, path[1:]):
            eid = edges.index.get((u, v))
            if eid is None:
                problems.append(f"flow {fid}: path uses missing edge {(u, v)}")
            else:
                edge_ids.append(eid)
        edge_ptr.append(len(edge_ids))
        for seg in schedule.segments(fid):
            seg_flow.append(k)
            seg_start.append(seg.start)
            seg_end.append(seg.end)
            seg_rate.append(seg.rate)
    if problems:
        return problems[:5]

    n = len(flow_ids)
    s_flow = np.asarray(seg_flow, dtype=np.int64)
    s_start = np.asarray(seg_start, dtype=float)
    s_end = np.asarray(seg_end, dtype=float)
    s_rate = np.asarray(seg_rate, dtype=float)
    size = np.asarray(sizes, dtype=float)
    release = np.asarray(releases, dtype=float)

    # Volume: each flow delivers exactly its size.
    delivered = np.bincount(s_flow, weights=(s_end - s_start) * s_rate, minlength=n)
    bad = np.abs(delivered - size) > REL_TOL * np.maximum(1.0, size)
    for k in np.flatnonzero(bad)[:3]:
        problems.append(f"flow {flow_ids[k]} delivered {delivered[k]!r}, size {size[k]!r}")

    # Release: no segment starts before the flow is released.
    early = s_start < release[s_flow] - TIME_EPS
    for q in np.flatnonzero(early)[:3]:
        k = s_flow[q]
        problems.append(f"flow {flow_ids[k]} sends at {s_start[q]!r} before release {release[k]!r}")

    # Completion: the reported time is where the last segment ends (zero-size
    # flows, which send nothing, complete at their release).
    last_end = release.copy()
    if s_flow.size:
        np.maximum.at(last_end, s_flow, s_end)
    reported = np.asarray([completion[fid] for fid in flow_ids], dtype=float)
    off = np.abs(reported - last_end) > REL_TOL * np.maximum(1.0, np.abs(last_end))
    for k in np.flatnonzero(off)[:3]:
        problems.append(f"flow {flow_ids[k]} completes at {reported[k]!r}, last segment ends {last_end[k]!r}")

    # Capacity: expand every segment onto each edge of its flow's path, then
    # sweep each edge's rate changes in time order.
    ptr = np.asarray(edge_ptr, dtype=np.int64)
    flow_edges = np.asarray(edge_ids, dtype=np.int64)
    degree = (ptr[1:] - ptr[:-1])[s_flow]
    total = int(degree.sum())
    if total:
        seg_of = np.repeat(np.arange(s_flow.size), degree)
        within = np.arange(total) - np.repeat(np.cumsum(degree) - degree, degree)
        edge = flow_edges[ptr[s_flow[seg_of]] + within]
        ev_edge = np.concatenate([edge, edge])
        ev_time = np.concatenate([s_start[seg_of], s_end[seg_of]])
        ev_delta = np.concatenate([s_rate[seg_of], -s_rate[seg_of]])
        order = np.lexsort((ev_time, ev_edge))
        ev_edge, ev_time, ev_delta = ev_edge[order], ev_time[order], ev_delta[order]
        # One group per (edge, boundary time); loads are read after a group.
        new_group = np.ones(ev_edge.size, dtype=bool)
        new_group[1:] = (ev_edge[1:] != ev_edge[:-1]) | (ev_time[1:] - ev_time[:-1] > TIME_EPS)
        starts = np.flatnonzero(new_group)
        group_delta = np.add.reduceat(ev_delta, starts)
        group_edge = ev_edge[starts]
        # Every edge's changes sum to zero, so one running sum over all
        # edges, less its value before each edge's first group, is the load.
        running = np.cumsum(group_delta)
        first = np.ones(group_edge.size, dtype=bool)
        first[1:] = group_edge[1:] != group_edge[:-1]
        edge_first = np.maximum.accumulate(np.where(first, np.arange(first.size), 0))
        load = running - (running - group_delta)[edge_first]
        cap = edges.capacity[group_edge]
        over = load > cap * (1.0 + REL_TOL) + REL_TOL
        for g in np.flatnonzero(over)[:3]:
            problems.append(
                f"edge {int(group_edge[g])} carries {load[g]!r} > capacity {cap[g]!r} "
                f"at t={ev_time[starts[g]]!r}"
            )
    return problems


def weighted_completion(instance, completion) -> float:
    """Objective (1) from flow completion times and coflow weights."""
    total = 0.0
    for i, coflow in enumerate(instance.coflows):
        finish = max((completion[(i, j)] for j in range(len(coflow.flows))), default=0.0)
        total += coflow.weight * finish
    return total


def check_objective(instance, result, bounds: Iterable[Tuple[str, float]]) -> List[str]:
    """Recompute the objective; every lower bound must not exceed it."""
    problems: List[str] = []
    achieved = weighted_completion(instance, result.flow_completion)
    reported = result.weighted_completion_time
    if abs(achieved - reported) > REL_TOL * max(1.0, abs(achieved)):
        problems.append(f"weighted completion time {reported!r}, recomputed {achieved!r}")
    for name, bound in bounds:
        if not bound <= achieved * (1.0 + REL_TOL):
            problems.append(f"lower bound {name} = {bound!r} exceeds achieved {achieved!r}")
    return problems


def check_result(instance, result, edges: EdgeTable, bounds) -> List[str]:
    """All checks on one result."""
    return check_schedule(instance, result, edges) + check_objective(instance, result, bounds)


def fingerprint(result) -> Tuple[float, int, int]:
    """A cheap identity of a result, for repeats of an already checked input."""
    return (
        result.weighted_completion_time,
        result.events,
        hash(tuple(sorted(result.flow_completion.items()))),
    )
