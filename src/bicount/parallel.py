"""Shared-memory parallel butterfly counting.

Workers share one read-only rank-space CSR (``kernel.rank_csr``) and run
the kernel's chunked sort-and-fold over their own start rows, so each
holds only the arrays of the chunk it is folding.  Dynamic mode hands out
consecutive slices of a queue ordered by the chosen strategy, each of
about ``kernel.CHUNK_WEDGES`` wedges, through a lock-guarded cursor;
static mode precomputes the whole partition.  Counts are integers, so the
reduction is order-independent and the result is identical for every
thread count, mode, strategy, and seed.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import kernel
from .errors import ConfigError, CountOverflowError
from .exact import COUNT_LIMIT, CountReport
from .graph import BipartiteGraph, PriorityMap

MODES = ("dynamic", "static")
STRATEGIES = ("priority", "random", "heuristic")


@dataclass(frozen=True)
class ScheduleConfig:
    mode: str = "dynamic"
    strategy: str = "priority"
    threads: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")


@dataclass
class ThreadReport:
    thread: int
    butterflies: int
    wedges_processed: int
    vertices_handled: int


def estimate_all_workloads(g: BipartiteGraph, p: PriorityMap) -> list[int]:
    """Cheap workload estimate of every start vertex u: the number of
    two-hop entries (v, w) with v a neighbor of u and w a neighbor of v
    outranking v.  O(n + m): precompute, per middle v, how many of its
    neighbors outrank it, then sum over each start's middles."""
    pr = p.priority
    adjacency = g.adjacency
    n = g.vertex_count
    outranked = [0] * n
    for v in range(n):
        pv = pr[v]
        outranked[v] = sum(1 for w in adjacency[v] if pr[w] > pv)
    return [sum(outranked[v] for v in adjacency[u]) for u in range(n)]


def _longest_first(workloads: list[int]) -> list[int]:
    """Job indices by descending workload, ties in index order."""
    return sorted(range(len(workloads)), key=lambda j: -workloads[j])


def greedy_assign(workloads: list[int], threads: int) -> list[list[int]]:
    """Longest-processing-time greedy: jobs sorted by descending workload,
    each to the least-loaded thread.  Returns per-thread job-index lists."""
    return simulate_list_schedule(workloads, threads, _longest_first(workloads))


def make_static_assignment(g: BipartiteGraph, p: PriorityMap,
                           cfg: ScheduleConfig) -> list[list[int]]:
    """Partition all vertices over cfg.threads per the named strategy:
    priority sends p(u) mod t to thread index p(u) mod t, random draws a
    uniform thread per vertex from the seeded generator, heuristic runs
    the greedy assignment over estimated workloads."""
    if cfg.mode != "static":
        raise ConfigError("static assignment requested for a non-static config")
    n = g.vertex_count
    t = cfg.threads
    if cfg.strategy == "priority":
        assignment: list[list[int]] = [[] for _ in range(t)]
        pr = p.priority
        for u in range(n):
            assignment[pr[u] % t].append(u)
        return assignment
    if cfg.strategy == "random":
        rng = random.Random(cfg.seed)
        assignment = [[] for _ in range(t)]
        for u in range(n):
            assignment[rng.randrange(t)].append(u)
        return assignment
    return greedy_assign(estimate_all_workloads(g, p), t)


def makespan(assignment: list[list[int]], workloads: list[int]) -> int:
    """Maximum per-thread workload sum; every vertex must appear exactly once."""
    seen = [False] * len(workloads)
    for lane in assignment:
        for u in lane:
            if u < 0 or u >= len(workloads) or seen[u]:
                raise ValueError(f"vertex {u} missing or assigned twice")
            seen[u] = True
    if not all(seen):
        raise ValueError(f"vertex {seen.index(False)} unassigned")
    return max((sum(workloads[u] for u in lane) for lane in assignment), default=0)


def simulate_list_schedule(workloads: list[int], threads: int,
                           order: list[int] | None = None) -> list[list[int]]:
    """Deterministic model of dynamic dispatch: jobs in queue order go to
    the thread that frees earliest.  Used for schedule-quality checks."""
    if order is None:
        order = list(range(len(workloads)))
    assignment: list[list[int]] = [[] for _ in range(threads)]
    loads = [0] * threads
    for j in order:
        t = min(range(threads), key=loads.__getitem__)
        assignment[t].append(j)
        loads[t] += workloads[j]
    return assignment


def _dynamic_order(g: BipartiteGraph, p: PriorityMap, cfg: ScheduleConfig) -> list[int]:
    n = g.vertex_count
    if cfg.strategy == "priority":
        return p.descending_vertices()
    if cfg.strategy == "random":
        order = list(range(n))
        random.Random(cfg.seed).shuffle(order)
        return order
    return _longest_first(estimate_all_workloads(g, p))


def _memory_guard(chunk_wedges: int, threads: int) -> None:
    """Refuse thread counts whose chunk arrays cannot fit: each worker
    holds a chunk's expansion, about four int64 arrays of its wedges."""
    needed = chunk_wedges * threads * 32
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return
    if needed > physical // 2:
        raise ConfigError(f"{threads} threads folding chunks of up to {chunk_wedges} "
                          f"wedges need ~{needed} bytes; reduce threads")


class _Cursor:
    """Fetch-and-increment dispatch point over a queue of row slices."""

    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            value = self._value
            self._value = value + 1
            return value


def count_parallel(g: BipartiteGraph, p: PriorityMap,
                   cfg: ScheduleConfig) -> tuple[CountReport, list[ThreadReport]]:
    """Parallel end-dominant counting over any graph and priority map.

    The count always equals ``count_vpp``'s; per-thread wedge totals
    partition its total.
    """
    t0 = perf_counter()
    csr = kernel.rank_csr(g, p)
    t = cfg.threads
    _memory_guard(max(kernel.CHUNK_WEDGES, int(np.diff(csr.row_wedges).max(initial=0))), t)

    # Each worker draws row slices through a cursor: dynamic workers share
    # one queue of slices, a static worker owns one slice, its lane.
    rank = np.asarray(p.priority, dtype=np.int64) - 1
    if cfg.mode == "dynamic":
        order = rank[_dynamic_order(g, p, cfg)]
        bounds = [0] + kernel.chunk_bounds(csr, order)
        shared = ([order[lo:hi] for lo, hi in zip(bounds, bounds[1:])], _Cursor())
        queues = [shared] * t
    else:
        queues = [([rank[lane]], _Cursor()) for lane in make_static_assignment(g, p, cfg)]

    results: list = [None] * t

    def run(tid: int) -> None:
        slices, cursor = queues[tid]
        butterflies = wedges = handled = 0
        try:
            while (i := cursor.next()) < len(slices):
                b, w = kernel.count_rows(csr, slices[i])
                butterflies += b
                wedges += w
                handled += len(slices[i])
        except Exception as exc:  # raised again below, once every worker is done
            results[tid] = exc
        else:
            results[tid] = (butterflies, wedges, handled)

    workers = [threading.Thread(target=run, args=(tid,)) for tid in range(t)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    for r in results:
        if isinstance(r, Exception):
            raise r

    # Reduce in thread-index order; integer addition makes the total
    # independent of which worker handled which start vertex.
    butterflies = sum(r[0] for r in results)
    if butterflies >= COUNT_LIMIT:
        raise CountOverflowError("butterfly count exceeded 128 bits")
    wedges = sum(r[1] for r in results)
    handled = sum(r[2] for r in results)
    report = CountReport(butterflies, wedges, handled, 2 * g.edge_count, wedges,
                         perf_counter() - t0)
    thread_reports = [ThreadReport(tid, *r) for tid, r in enumerate(results)]
    return report, thread_reports
