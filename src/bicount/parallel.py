"""Scheduled butterfly counting: the paper's parallel engine, lane by lane.

The paper splits start vertices over threads.  Here the schedule decides
each thread's share, its *lane*, and the lanes are folded one after
another in the calling thread (under CPython's GIL, threads added no
speed): each lane is one ``kernel.count_rows`` call over one shared
rank-space CSR (``kernel.rank_csr``).  Dynamic mode cuts a queue ordered
by the chosen strategy into consecutive slices of about
``kernel.CHUNK_WEDGES`` wedges and deals them out with the list-schedule
model (``simulate_list_schedule``), each slice lasting its wedge count;
static mode precomputes the whole partition.  Counts are integers, so the
total is identical for every lane count, mode, strategy, and seed, and
every lane's report repeats exactly across calls.
"""

from __future__ import annotations

import heapq
import os
import random
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import kernel
from .errors import ConfigError
from .exact import CountReport, check_limit
from .graph import BipartiteGraph

MODES = ("dynamic", "static")
STRATEGIES = ("priority", "random", "heuristic")

# Bytes one lane holds besides its chunk: its rows, its load and its report.
LANE_BYTES = 512


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


def estimate_all_workloads(g: BipartiteGraph, p: np.ndarray) -> list[int]:
    """Cheap workload estimate of every start vertex u: the number of
    two-hop entries (v, w) with v a neighbor of u and w a neighbor of v
    outranking v.  O(n + m): precompute, per middle v, how many of its
    neighbors outrank it, then sum over each start's middles."""
    n = g.vertex_count
    uppers, lowers = g.uppers, g.lowers
    # Each edge counts once, at its end that the other end outranks.
    outranked = np.bincount(np.where(p[uppers] > p[lowers], lowers, uppers), minlength=n)
    workloads = np.zeros(n, dtype=np.int64)
    np.add.at(workloads, uppers, outranked[lowers])
    np.add.at(workloads, lowers, outranked[uppers])
    return workloads.tolist()


def _longest_first(workloads: list[int]) -> list[int]:
    """Job indices by descending workload, ties in index order."""
    return np.argsort(-np.asarray(workloads, dtype=np.int64), kind="stable").tolist()


def greedy_assign(workloads: list[int], threads: int) -> list[list[int]]:
    """Longest-processing-time greedy: jobs sorted by descending workload,
    each to the least-loaded thread.  Returns per-thread job-index lists."""
    return simulate_list_schedule(workloads, threads, _longest_first(workloads))


def make_static_assignment(g: BipartiteGraph, p: np.ndarray,
                           cfg: ScheduleConfig) -> list[list[int]]:
    """Partition all vertices over cfg.threads per the named strategy:
    priority sends p(u) mod t to thread index p(u) mod t, random draws a
    uniform thread per vertex from the seeded generator, heuristic runs
    the greedy assignment over estimated workloads."""
    if cfg.mode != "static":
        raise ConfigError("static assignment requested for a non-static config")
    t = cfg.threads
    if cfg.strategy == "heuristic":
        return greedy_assign(estimate_all_workloads(g, p), t)
    if cfg.strategy == "priority":
        lanes = p % t
    else:
        draw = random.Random(cfg.seed).randrange
        lanes = np.array([draw(t) for _ in range(g.vertex_count)], dtype=np.int64)
    # A stable sort keeps each lane's vertices in ascending order.
    by_lane = np.argsort(lanes, kind="stable")
    return [part.tolist() for part in
            np.split(by_lane, np.cumsum(np.bincount(lanes, minlength=t))[:-1])]


def simulate_list_schedule(workloads: list[int], threads: int,
                           order: list[int] | None = None) -> list[list[int]]:
    """Deterministic model of dynamic dispatch: jobs in queue order go to
    the thread that frees earliest.  Deals the dynamic lanes of
    ``count_parallel``."""
    if order is None:
        order = list(range(len(workloads)))
    assignment: list[list[int]] = [[] for _ in range(threads)]
    # (load, lane): the least-loaded lane pops first, the lowest index on ties.
    free = [(0, t) for t in range(threads)]
    for j in order:
        load, t = free[0]
        assignment[t].append(j)
        heapq.heapreplace(free, (load + workloads[j], t))
    return assignment


def _dynamic_order(g: BipartiteGraph, p: np.ndarray, cfg: ScheduleConfig) -> np.ndarray:
    """The dynamic queue of start vertices, as ranks."""
    n = g.vertex_count
    if cfg.strategy == "priority":
        return np.arange(n)[::-1]
    if cfg.strategy == "random":
        order = list(range(n))
        random.Random(cfg.seed).shuffle(order)
    else:
        order = _longest_first(estimate_all_workloads(g, p))
    return (p - 1)[order]


def _memory_guard(chunk_wedges: int, threads: int) -> None:
    """Refuse lane counts whose bookkeeping cannot fit.  Lanes are folded
    one at a time, so only one chunk's expansion (about four int64 arrays
    of its wedges) is live; each lane still holds its rows, its load in
    the schedule and its report, about ``LANE_BYTES``."""
    needed = chunk_wedges * 32 + threads * LANE_BYTES
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return
    if needed > physical // 2:
        raise ConfigError(f"{threads} lanes folding chunks of up to {chunk_wedges} "
                          f"wedges need ~{needed} bytes; reduce threads")


def count_parallel(g: BipartiteGraph, p: np.ndarray,
                   cfg: ScheduleConfig) -> tuple[CountReport, list[ThreadReport]]:
    """Scheduled end-dominant counting over any graph and priorities ``p``.

    The count always equals ``count_vpp``'s; per-lane wedge totals
    partition its total.
    """
    t0 = perf_counter()
    csr = kernel.rank_csr(g, p)
    _memory_guard(max(kernel.CHUNK_WEDGES, int(csr.wedges.max(initial=0))), cfg.threads)

    # A dynamic lane is the slices that the list schedule deals it, each
    # slice lasting its wedge count; a static lane is its partition.
    if cfg.mode == "dynamic":
        order = _dynamic_order(g, p, cfg)
        slices = np.split(order, kernel.chunk_bounds(csr.wedges[order]))
        durations = [int(csr.wedges[rows].sum()) for rows in slices]
        # order[:0] keeps a lane that is dealt no slice an empty array.
        lanes = [np.concatenate([order[:0], *(slices[i] for i in lane)])
                 for lane in simulate_list_schedule(durations, cfg.threads)]
    else:
        rank = p - 1
        lanes = [rank[lane] for lane in make_static_assignment(g, p, cfg)]

    reports = [ThreadReport(tid, *kernel.count_rows(csr, rows), len(rows))
               for tid, rows in enumerate(lanes)]
    butterflies = check_limit(sum(r.butterflies for r in reports), "butterfly count")
    wedges = sum(r.wedges_processed for r in reports)
    report = CountReport(butterflies, wedges, g.vertex_count, 2 * g.edge_count, wedges,
                         perf_counter() - t0)
    return report, reports
