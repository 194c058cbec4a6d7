"""Scheduled butterfly counting: the paper's parallel engine.

The paper splits start vertices over threads.  Here the schedule decides
each thread's share, its *lane*, and the lanes fold at the same time:
each lane is one ``kernel.count_rows`` call over one shared, read-only
rank-space CSR (``kernel.rank_csr``), made of long numpy passes (sort,
take, cumsum) that release the GIL.  A thread pool that lives for one
call folds them, one worker per lane with wedges up to the CPUs the
process may use, so ``threads`` is the lane count, never the OS thread
count; with at most one such lane the call folds in the calling thread
and starts none.  On the benchmark's ``skewed`` graph (185k edges, 3.24M
wedges; 2-core Xeon) the two lanes fold in 0.075 s on two workers
against 0.122 s in turn.  Every lane is dealt by one model, the list
schedule (Graham 1969, ``simulate_list_schedule``): jobs leave
one queue in order, each to the lane that frees earliest.  The strategy
picks the queue of start vertices (highest priority first, a seeded
shuffle, or most wedges first); the mode picks the jobs.  Either job
lasts its exact wedge count, ``csr.wedges`` of the CSR built before the
plan: a dynamic job is a slice of about ``kernel.CHUNK_WEDGES``
consecutive queued vertices, a static job is one queued vertex.  Counts
are integers and reports are collected in lane order, so the total is
identical for every lane count, mode, strategy, and seed, and every
lane's report repeats exactly across calls.

The per-edge counts (``edges.count_per_edge_evpp``) use the same dynamic
dealing (``_deal``, the highest-priority-first queue) and the same pool
(``_fold_lanes``), with up to ``_cpu_limit()`` lanes, one worker each.
Each worker sums ``kernel.credit_rows`` into its own int64 credit array
of 2m entries, 16m bytes beside its chunk, and the arrays are added up at
the end; ``_credit_lanes`` deals fewer lanes when memory cannot hold
them, down to one folded inline, and never refuses.
"""

from __future__ import annotations

import heapq
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
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
# Bytes a folding worker holds per wedge of its chunk: about four int64 arrays.
WEDGE_BYTES = 32


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


def simulate_list_schedule(workloads: list[int], threads: int) -> list[list[int]]:
    """The list schedule: jobs in queue order go to the thread that frees
    earliest.  Returns each thread's job indices, in the order dealt."""
    assignment: list[list[int]] = [[] for _ in range(threads)]
    # (load, lane): the least-loaded lane pops first, the lowest index on ties.
    free = [(0, t) for t in range(threads)]
    for j, work in enumerate(workloads):
        load, t = free[0]
        assignment[t].append(j)
        heapq.heapreplace(free, (load + work, t))
    return assignment


def _queue(csr: kernel.RankCsr, p: np.ndarray, cfg: ScheduleConfig) -> np.ndarray:
    """The strategy's queue of start vertices, as ranks: highest priority
    first, a seeded shuffle of the vertices, or most wedges first (ties
    in rank order)."""
    if cfg.strategy == "priority":
        return np.arange(len(p))[::-1]
    if cfg.strategy == "heuristic":
        return np.argsort(-csr.wedges, kind="stable")
    order = list(range(len(p)))
    random.Random(cfg.seed).shuffle(order)
    return (p - 1)[order]


def make_static_assignment(csr: kernel.RankCsr, queue: np.ndarray,
                           threads: int) -> list[np.ndarray]:
    """Static lanes: ``queue`` (ranks) dealt one vertex at a time by the
    list schedule, each vertex lasting its wedge count.  Returns each
    lane's ranks, in the order dealt."""
    return [queue[lane] for lane in simulate_list_schedule(csr.wedges[queue].tolist(), threads)]


def _cpu_limit() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _spare_memory() -> int | None:
    """Half the physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2
    except (ValueError, OSError, AttributeError):
        return None


def _memory_guard(chunk_wedges: int, threads: int) -> None:
    """Refuse lane counts whose bookkeeping cannot fit.  At most
    ``_cpu_limit()`` lanes fold at once, each with one chunk's expansion
    (about four int64 arrays of its wedges) live; every lane holds its
    rows, its load in the schedule and its report, about ``LANE_BYTES``."""
    needed = min(threads, _cpu_limit()) * chunk_wedges * WEDGE_BYTES + threads * LANE_BYTES
    spare = _spare_memory()
    if spare is not None and needed > spare:
        raise ConfigError(f"{threads} lanes folding chunks of up to {chunk_wedges} "
                          f"wedges need ~{needed} bytes; reduce threads")


def _chunk_wedges(csr: kernel.RankCsr) -> int:
    """The wedges of the largest chunk ``kernel.iter_chunks`` expands."""
    return max(kernel.CHUNK_WEDGES, int(csr.wedges.max(initial=0)))


def _credit_lanes(csr: kernel.RankCsr) -> int:
    """Lanes of a per-edge fold over ``csr``, one worker each: up to
    ``_cpu_limit()``, as many as fit, each with one chunk's expansion and
    its own int64 credit array (8 bytes an entry) live, but never fewer
    than one, the inline fold."""
    lanes = _cpu_limit()
    spare = _spare_memory()
    if spare is not None:
        worker = _chunk_wedges(csr) * WEDGE_BYTES + len(csr.columns) * 8 + LANE_BYTES
        lanes = min(lanes, spare // worker)
    return max(1, lanes)


def _deal(csr: kernel.RankCsr, queue: np.ndarray, threads: int) -> list[np.ndarray]:
    """Dynamic lanes: ``queue`` (ranks) cut by ``kernel.chunk_bounds`` into
    slices, each a job lasting its wedge count, dealt by the list schedule."""
    slices = np.split(queue, kernel.chunk_bounds(csr.wedges[queue]))
    durations = [int(csr.wedges[rows].sum()) for rows in slices]
    # queue[:0] keeps a lane that is dealt no slice an empty array.
    return [np.concatenate([queue[:0], *(slices[i] for i in lane)])
            for lane in simulate_list_schedule(durations, threads)]


def _fold_lanes(csr: kernel.RankCsr, fold, lanes: list[np.ndarray]) -> list:
    """``fold(csr, rows)`` of every lane, in lane order.  numpy releases the
    GIL in the kernel's long passes, so lanes with wedges fold on a pool of
    up to ``_cpu_limit()`` threads that lives for this call; with at most
    one such lane every lane folds in the calling thread, which starts none."""
    workers = min(sum(1 for rows in lanes if csr.wedges[rows].any()), _cpu_limit())
    fold = partial(fold, csr)
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            return list(pool.map(fold, lanes))
    return list(map(fold, lanes))


def count_parallel(g: BipartiteGraph, p: np.ndarray,
                   cfg: ScheduleConfig) -> tuple[CountReport, list[ThreadReport]]:
    """Scheduled end-dominant counting over any graph and priorities ``p``.

    The count always equals ``count_vpp``'s; per-lane wedge totals
    partition its total.
    """
    t0 = perf_counter()
    csr = kernel.rank_csr(g, p)
    _memory_guard(_chunk_wedges(csr), cfg.threads)

    plan = _deal if cfg.mode == "dynamic" else make_static_assignment
    lanes = plan(csr, _queue(csr, p, cfg), cfg.threads)

    folds = _fold_lanes(csr, kernel.count_rows, lanes)
    reports = [ThreadReport(tid, *counts, len(rows))
               for tid, (counts, rows) in enumerate(zip(folds, lanes))]
    butterflies = check_limit(sum(r.butterflies for r in reports), "butterfly count")
    wedges = sum(r.wedges_processed for r in reports)
    report = CountReport(butterflies, wedges, g.vertex_count, 2 * g.edge_count, wedges,
                         perf_counter() - t0)
    return report, reports
