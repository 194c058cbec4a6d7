"""Scheduled butterfly counting: the paper's parallel engine, and the lane
fold that every in-memory count runs on.

The paper splits start vertices over threads; ``exact.count_vpp`` is
``count_parallel``'s default schedule on one lane per CPU.  The schedule
decides each thread's share, its *lane*: a list of chunks of start rows,
cut once by ``kernel.chunks``.  ``fold_lanes`` folds the lanes it is given
at the same time, each with one kernel call (``kernel.count_rows``, or
``credit_rows`` for per-edge counts, one lane per worker) that expands its
chunks over one shared, read-only rank-space CSR (``kernel.rank_csr``) in
long numpy passes (sort, take, cumsum) that release the GIL.  A thread
pool that lives for one call folds them, one worker per lane with wedges
up to ``_workers``, so ``threads`` is the lane count, never the OS thread
count; with at most one such lane the call folds in the calling thread
and starts none.
Every lane is dealt by one model, the list schedule (Graham 1969,
``simulate_list_schedule``): jobs leave one queue in order, each to the
lane that frees earliest.  The strategy picks the queue of start
vertices (highest priority first, a seeded shuffle, or most wedges
first); the mode picks the jobs.  Either job lasts its exact wedge
count, ``csr.wedges`` of the CSR built before the plan: a dynamic job is
a chunk of the queue, which its lane folds as dealt; a static job is one
queued vertex, and each static lane is cut into chunks once dealt.
Counts are integers and results are collected in lane order, so the
total is identical for every lane count, mode, strategy, and seed, and
every lane's report repeats exactly across calls.

One rule, ``_workers``, caps how many threads fold at once: up to the
CPUs the process may use, and as many as half the physical memory holds,
each charged the expansion of the largest chunk it is handed and what
its fold holds besides (a per-edge lane's credit array).  Memory never
decides whether a graph is counted: under short memory fewer lanes fold
at once, down to one in the calling thread, with the same results.  Only
a lane count whose bookkeeping alone exceeds that memory is refused.
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

from . import exact, kernel
from .errors import ConfigError
from .graph import BipartiteGraph, _cpu_limit

MODES = ("dynamic", "static")
STRATEGIES = ("priority", "random", "heuristic")

# Bytes one lane holds besides its chunk: its rows, its load and its report.
LANE_BYTES = 512
# Bytes a folding worker holds per wedge and per (start, middle) entry of
# its chunk.  Under tracemalloc, every chunk of ``kernel.count_rows`` and
# ``credit_rows`` (credit array aside) peaked within 36 bytes a wedge plus
# 48 an entry on ``tests/test_parallel.py``'s graphs (0.03 to 4 entries and
# 21 to 176 bytes a wedge), and 32 plus 48 on seed-3 skewed and uniform.
WEDGE_BYTES = 52
ENTRY_BYTES = 48


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


def _spare_memory() -> int | None:
    """Half the physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2
    except (ValueError, OSError, AttributeError):
        return None


def _workers(csr: kernel.RankCsr, chunks: list[np.ndarray], held: int = 0) -> int:
    """How many threads may fold ``chunks`` of ``csr`` at once: up to
    ``_cpu_limit()``, as many as half the physical memory holds, each with
    the largest chunk's expansion (its wedges at ``WEDGE_BYTES`` and the
    entries of its starts with wedges at ``ENTRY_BYTES``), ``held`` bytes of
    its own and ``LANE_BYTES``; never fewer than one, which folds in the
    calling thread."""
    cpus, spare = _cpu_limit(), _spare_memory()
    if spare is None or cpus == 1:
        return cpus
    entries = np.where(csr.wedges > 0, np.diff(csr.row_offsets), 0)
    cost = csr.wedges * WEDGE_BYTES + entries * ENTRY_BYTES
    largest = max(int(cost[rows].sum()) for rows in chunks)
    return max(1, min(cpus, spare // (largest + held + LANE_BYTES)))


def _deal(csr: kernel.RankCsr, chunks: list[np.ndarray], threads: int) -> list[list[np.ndarray]]:
    """Dynamic lanes: ``chunks``, each a job lasting its wedge count, dealt
    by the list schedule.  Returns each lane's chunks, in the order dealt."""
    durations = [int(csr.wedges[rows].sum()) for rows in chunks]
    return [[chunks[i] for i in lane] for lane in simulate_list_schedule(durations, threads)]


def fold_lanes(csr: kernel.RankCsr, fold, lanes: list[list[np.ndarray]], held: int = 0) -> list:
    """``fold(csr, chunks)`` of every lane, a list of chunks, in lane order.
    Lanes with wedges fold on a pool of up to ``_workers`` threads, each
    holding ``held`` bytes, for this call; with at most one, or one worker,
    every lane folds in the calling thread, which starts none."""
    busy = sum(1 for lane in lanes if any(csr.wedges[rows].any() for rows in lane))
    workers = (min(busy, _workers(csr, [rows for lane in lanes for rows in lane], held))
               if busy > 1 else 1)
    fold = partial(fold, csr)
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            return list(pool.map(fold, lanes))
    return list(map(fold, lanes))


def count_parallel(g: BipartiteGraph, p: np.ndarray,
                   cfg: ScheduleConfig) -> tuple[exact.CountReport, list[ThreadReport]]:
    """Scheduled end-dominant counting over any graph and priorities ``p``.

    ``exact.count_vpp`` is its default schedule on one lane per CPU; the
    count is the same under every schedule, and lanes partition the wedges.
    """
    t0 = perf_counter()
    spare = _spare_memory()
    if spare is not None and cfg.threads * LANE_BYTES > spare:
        raise ConfigError(f"{cfg.threads} lanes need ~{cfg.threads * LANE_BYTES} bytes "
                          "of bookkeeping; reduce threads")
    csr = kernel.rank_csr(g, p)
    queue = _queue(csr, p, cfg)
    if cfg.mode == "dynamic":
        lanes = _deal(csr, kernel.chunks(csr, queue), cfg.threads)
    else:
        lanes = [kernel.chunks(csr, rows)
                 for rows in make_static_assignment(csr, queue, cfg.threads)]
    folds = fold_lanes(csr, kernel.count_rows, lanes)
    reports = [ThreadReport(tid, *counts, sum(map(len, lane)))
               for tid, (counts, lane) in enumerate(zip(folds, lanes))]
    butterflies = exact.check_limit(sum(r.butterflies for r in reports), "butterfly count")
    wedges = sum(r.wedges_processed for r in reports)
    report = exact.CountReport(butterflies, wedges, g.vertex_count, 2 * g.edge_count,
                               wedges, perf_counter() - t0)
    return report, reports
