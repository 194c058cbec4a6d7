import os
import random
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicount import kernel, parallel
from bicount.errors import ConfigError
from bicount.edges import brute_force_per_edge
from bicount.exact import CountReport, count_ibs, count_vp, count_vpp
from bicount.generate import hub_pairs, random_pairs, random_pairs_m
from bicount.graph import BipartiteGraph, assign_priorities
from bicount.parallel import (MODES, STRATEGIES, ScheduleConfig, count_parallel,
                              make_static_assignment, simulate_list_schedule)
from helpers import (chunk_bytes, four_cycle, layer_priority, makespan, random_graph_set, star,
                     timeless)
from test_edges import busy_graph
from test_kernel import graphs

PROBS = (0.05, 0.1, 0.25, 0.5)


def check_lanes_follow_the_list_schedule(monkeypatch, mode):
    """Every lane folds the jobs that the list schedule deals it from the
    strategy's queue, each lasting its vertices' wedges, so each lane's
    wedges are predicted exactly and repeat across calls.  A dynamic lane
    folds the chunks it was dealt as they are, in the order dealt."""
    g = BipartiteGraph.build(random_pairs(30, 30, 0.3, seed=7), 30, 30)
    p = assign_priorities(g)
    monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
    csr = kernel.rank_csr(g, p)
    shuffled = list(range(g.vertex_count))
    random.Random(7).shuffle(shuffled)
    # Each strategy's queue, as ranks.
    queues = {"priority": list(range(g.vertex_count))[::-1],
              "random": (p - 1)[shuffled],
              "heuristic": sorted(range(g.vertex_count), key=lambda r: -csr.wedges[r])}
    real, folded = kernel.count_rows, []

    def recording(csr, chunks):
        folded.append([rows.tolist() for rows in chunks])
        return real(csr, chunks)

    for strategy, ranks in queues.items():
        ranks = np.asarray(ranks)
        if mode == "dynamic":
            jobs = kernel.chunks(csr, ranks)
            assert len(jobs) > 8
        else:
            jobs = [ranks[i:i + 1] for i in range(len(ranks))]
        durations = [int(csr.wedges[rows].sum()) for rows in jobs]
        # A job lasts the wedges its lane counts for it.
        assert durations == [real(csr, [rows])[1] for rows in jobs]
        for threads in (3, 8):
            dealt = simulate_list_schedule(durations, threads)
            predicted = [sum(durations[i] for i in lane) for lane in dealt]
            cfg = ScheduleConfig(mode=mode, strategy=strategy, threads=threads, seed=7)
            folded.clear()
            monkeypatch.setattr(kernel, "count_rows", recording)
            first = count_parallel(g, p, cfg)[1]
            monkeypatch.setattr(kernel, "count_rows", real)
            assert [t.wedges_processed for t in first] == predicted
            if mode == "dynamic":
                # Lanes may fold in any order, each its own dealt jobs.
                assert sorted(folded) == sorted([jobs[i].tolist() for i in lane]
                                                for lane in dealt)
            for _ in range(2):
                assert count_parallel(g, p, cfg)[1] == first


class TestStaticAssignment:
    def test_greedy_longest_first(self):
        # The list schedule over a longest-first queue is Graham's LPT greedy.
        assignment = simulate_list_schedule([5, 3, 2], 2)
        assert assignment == [[0], [1, 2]]
        assert makespan(assignment, [5, 3, 2]) == 5
        # Many lanes, zero and equal workloads: ties go to the lowest lane
        # index among the least loaded, so the zero jobs share one lane.
        workloads = [0, 4, 0, 4, 4, 0]
        queue = sorted(range(6), key=lambda j: -workloads[j])
        assignment = simulate_list_schedule([workloads[j] for j in queue], 1024)
        assert [[queue[i] for i in lane] for lane in assignment] == \
            [[1], [3], [4], [0, 2, 5]] + [[]] * 1020
        assignment = simulate_list_schedule([6] * 2048 + [0] * 3, 1024)
        assert assignment == [[0, 1024, 2048, 2049, 2050]] + \
            [[t, t + 1024] for t in range(1, 1024)]

    def test_priority_strategy_single_thread(self):
        g = four_cycle()
        p = assign_priorities(g)
        csr = kernel.rank_csr(g, p)
        queue = parallel._queue(csr, p, ScheduleConfig())
        # One lane takes the whole queue, highest priority first.
        assert [lane.tolist() for lane in make_static_assignment(csr, queue, 1)] == \
            [[3, 2, 1, 0]]

    def test_random_strategy_is_seeded(self):
        g = star(8)
        p = assign_priorities(g)
        csr = kernel.rank_csr(g, p)
        cfg = ScheduleConfig(strategy="random", seed=42)
        shuffled = list(range(g.vertex_count))
        random.Random(42).shuffle(shuffled)
        # A shuffle of vertex IDs, mapped to ranks.
        assert parallel._queue(csr, p, cfg).tolist() == (p - 1)[shuffled].tolist()

    def test_partitions_cover_every_vertex_once(self):
        for g in random_graph_set(10, 15, PROBS, seed=73):
            p = assign_priorities(g)
            csr = kernel.rank_csr(g, p)
            for strategy in STRATEGIES:
                cfg = ScheduleConfig(strategy=strategy, seed=1)
                assignment = make_static_assignment(csr, parallel._queue(csr, p, cfg), 3)
                assert len(assignment) == 3
                assert sorted(np.concatenate(assignment).tolist()) == list(range(g.vertex_count))


class TestMakespan:
    def test_single_thread_is_total(self):
        assert makespan([[0, 1, 2]], [4, 5, 6]) == 15

    def test_example(self):
        assert makespan([[0], [1, 2]], [5, 3, 2]) == 5

    def test_empty_assignment_is_zero(self):
        assert makespan([[], []], []) == 0

    def test_unassigned_vertex_is_an_error(self):
        with pytest.raises(ValueError, match="unassigned"):
            makespan([[0], []], [1, 2])

    def test_double_assignment_is_an_error(self):
        with pytest.raises(ValueError):
            makespan([[0], [0, 1]], [1, 2])


def optimal_makespan(workloads, threads):
    """Exhaustive branch-and-bound optimum; fine for <= 12 jobs."""
    jobs = sorted(workloads, reverse=True)
    best = sum(jobs)
    loads = [0] * threads

    def place(i):
        nonlocal best
        if i == len(jobs):
            best = min(best, max(loads))
            return
        tried = set()
        for k in range(threads):
            if loads[k] in tried or loads[k] + jobs[i] >= best:
                continue
            tried.add(loads[k])
            loads[k] += jobs[i]
            place(i + 1)
            loads[k] -= jobs[i]

    place(0)
    return best


class TestScheduleQuality:
    def test_list_schedule_within_twice_optimal(self):
        rng = random.Random(1234)
        for _ in range(10):
            jobs = [rng.randint(1, 40) for _ in range(rng.randint(1, 12))]
            for threads in (2, 3):
                assignment = simulate_list_schedule(jobs, threads)
                assert makespan(assignment, jobs) <= 2 * optimal_makespan(jobs, threads)

    def test_static_lanes_within_the_bounds_of_real_wedges(self):
        # A static job lasts its start's exact wedges, the wedges its lane
        # then counts.  So every list schedule's largest lane is at most the
        # mean plus the largest job, and heuristic lanes, Graham's LPT, are
        # within 4/3 - 1/(3 threads) of the optimum.
        checked = 0
        for g in random_graph_set(60, 10, (0.25, 0.5), seed=91):
            p = assign_priorities(g)
            jobs = [int(w) for w in kernel.rank_csr(g, p).wedges if w]
            if not jobs or len(jobs) > 12:
                continue
            checked += 1
            for threads in (2, 3, 4):
                best = optimal_makespan(jobs, threads)
                for strategy in STRATEGIES:
                    cfg = ScheduleConfig(mode="static", strategy=strategy,
                                         threads=threads, seed=threads)
                    largest = max(t.wedges_processed for t in count_parallel(g, p, cfg)[1])
                    assert threads * largest <= sum(jobs) + threads * max(jobs)
                    if strategy == "heuristic":
                        assert 3 * threads * largest <= (4 * threads - 1) * best
        assert checked >= 30


class TestCountParallel:
    def test_single_thread_matches_sequential(self):
        g = BipartiteGraph.build(hub_pairs(40))
        p = assign_priorities(g)
        sequential = count_vpp(g, p)
        cfg = ScheduleConfig(mode="dynamic", strategy="priority", threads=1)
        report, threads = count_parallel(g, p, cfg)
        assert report.butterflies == sequential.butterflies
        assert report.wedges_processed == sequential.wedges_processed
        assert report.start_accesses == sequential.start_accesses
        assert report.middle_accesses == sequential.middle_accesses
        assert len(threads) == 1
        assert threads[0].vertices_handled == g.vertex_count

    def test_result_independent_of_everything(self):
        graphs = random_graph_set(4, 15, (0.25,), seed=81)
        graphs.append(BipartiteGraph.build(hub_pairs(30)))
        for g in graphs:
            p = assign_priorities(g)
            expected = count_vpp(g, p)
            for threads in (1, 2, 4, 8, 16):
                for mode in ("dynamic", "static"):
                    for strategy in ("priority", "random", "heuristic"):
                        cfg = ScheduleConfig(mode=mode, strategy=strategy,
                                             threads=threads, seed=threads)
                        report, _ = count_parallel(g, p, cfg)
                        assert report.butterflies == expected.butterflies
                        assert report.wedges_processed == expected.wedges_processed

    def test_thread_totals_partition_the_work(self):
        g = BipartiteGraph.build(hub_pairs(50))
        p = assign_priorities(g)
        sequential = count_vpp(g, p)
        cfg = ScheduleConfig(mode="static", strategy="heuristic", threads=4)
        report, threads = count_parallel(g, p, cfg)
        assert sum(t.butterflies for t in threads) == report.butterflies
        assert sum(t.wedges_processed for t in threads) == sequential.wedges_processed
        assert sum(t.vertices_handled for t in threads) == g.vertex_count

    def test_absurd_thread_counts_are_refused_before_the_csr(self, monkeypatch):
        # The lanes' bookkeeping alone exceeds half of any memory: no CSR is built.
        def unexpected(*args):
            raise AssertionError("rank_csr called")

        g = four_cycle()
        monkeypatch.setattr(kernel, "rank_csr", unexpected)
        with pytest.raises(ConfigError, match="threads"):
            count_parallel(g, assign_priorities(g), ScheduleConfig(threads=10 ** 14))

    def test_short_memory_folds_the_lanes_in_the_calling_thread(self, monkeypatch):
        # Both static lanes of this graph have wedges, each one chunk.  A
        # worker is charged its chunk's expansion and LANE_BYTES: half of
        # three workers' charge holds one worker, not two, and half of one
        # worker's charge not even one.  Either way the lanes fold here, one
        # after the other, as they would on two workers; memory never
        # refuses the graph.
        g = busy_graph()
        p = assign_priorities(g)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 2)
        cfg = ScheduleConfig(mode="static", strategy="priority", threads=2)
        report, lanes = count_parallel(g, p, cfg)
        assert all(t.wedges_processed for t in lanes)
        csr = kernel.rank_csr(g, p)
        worker = parallel.LANE_BYTES + max(
            chunk_bytes(csr, rows)
            for rows in make_static_assignment(csr, parallel._queue(csr, p, cfg), 2))
        idents, _ = record_fold_threads(monkeypatch)
        pages = {"SC_PAGE_SIZE": 1}
        monkeypatch.setattr(parallel.os, "sysconf", pages.__getitem__)
        for memory in (3 * worker, worker):
            pages["SC_PHYS_PAGES"] = memory
            short_report, short_lanes = count_parallel(g, p, cfg)
            assert short_lanes == lanes
            assert timeless(short_report) == timeless(report)
        assert idents == [threading.get_ident()] * 4

    def test_worker_failure_is_raised(self, monkeypatch):
        # A worker that dies must not leave a silently short count.  Both
        # static lanes of this graph have wedges, so both fold on the pool.
        g = busy_graph()
        p = assign_priorities(g)
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 2)
        real, calls = kernel.count_rows, []

        def failing_once(csr, chunks):
            calls.append(threading.get_ident())
            if len(calls) == 2:
                raise MemoryError("simulated")
            return real(csr, chunks)

        monkeypatch.setattr(kernel, "count_rows", failing_once)
        cfg = ScheduleConfig(mode="static", strategy="priority", threads=2)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="simulated"):
            count_parallel(g, p, cfg)
        assert len(calls) == 2 and threading.get_ident() not in calls
        # The pool has joined its workers before the failure is raised.
        assert threading.active_count() == before

    def test_dynamic_lanes_follow_the_list_schedule(self, monkeypatch):
        # A dynamic job is a chunk of the strategy's queue lasting its
        # wedge count.
        check_lanes_follow_the_list_schedule(monkeypatch, "dynamic")

    def test_static_lanes_follow_the_list_schedule(self, monkeypatch):
        # A static job is one vertex of the strategy's queue lasting its
        # wedge count.
        check_lanes_follow_the_list_schedule(monkeypatch, "static")

    @settings(max_examples=60, deadline=None)
    @given(graphs(), st.integers(min_value=0, max_value=2 ** 16))
    def test_matches_count_vpp_and_brute_force(self, g, seed):
        # A chunk cap of one makes every start its own chunk.
        p = assign_priorities(g)
        expected = count_vpp(g, p)
        assert expected.butterflies == brute_force_per_edge(g).butterflies
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "CHUNK_WEDGES", 1)
            for mode in MODES:
                for strategy in STRATEGIES:
                    for threads in (1, 2, 3, 8):
                        cfg = ScheduleConfig(mode=mode, strategy=strategy,
                                             threads=threads, seed=seed)
                        report, reports = count_parallel(g, p, cfg)
                        assert timeless(report) == timeless(expected)
                        assert sum(t.butterflies for t in reports) == report.butterflies
                        assert sum(t.wedges_processed for t in reports) == \
                            report.wedges_processed
                        assert sum(t.vertices_handled for t in reports) == g.vertex_count


def one_wedge_hubs(hubs: int, leaves: int) -> BipartiteGraph:
    """Each hub has ``leaves`` leaves and a neighbor of degree 2 whose other
    neighbor, shared by all, outranks every hub: the hubs' rows hold
    ``leaves + 1`` entries a wedge, and no other row has wedges."""
    index = np.arange(hubs)
    upper = np.concatenate([np.repeat(index, leaves), index, np.full(hubs, hubs)])
    lower = np.concatenate([np.arange(hubs * leaves), hubs * leaves + index,
                            hubs * leaves + index])
    lowers = hubs * leaves + hubs
    return BipartiteGraph.from_indices(upper, lower, hubs + 1, lowers,
                                       list(range(lowers)) + list(range(hubs + 1)))


def fold_peaks(g, p):
    """``(csr, chunks, peaks)`` of ``g`` under the priorities ``p``: every
    chunk of every strategy's queue, and the tracemalloc peak of folding
    each by ``count_rows`` and by ``credit_rows`` (credit array aside), as
    (rows, peak) pairs."""
    csr = kernel.rank_csr(g, p)
    chunks, peaks = [], []
    for strategy in STRATEGIES:
        queue = parallel._queue(csr, p, ScheduleConfig(strategy=strategy))
        chunks += kernel.chunks(csr, queue)
    for rows in chunks:
        for fold, held in ((kernel.count_rows, 0),
                           (kernel.credit_rows, 8 * len(csr.columns))):
            tracemalloc.start()
            try:
                fold(csr, [rows])
                peaks.append((rows, tracemalloc.get_traced_memory()[1] - held))
            finally:
                tracemalloc.stop()
    return csr, chunks, peaks


FOOTPRINT_GRAPHS = pytest.mark.parametrize("make", [
    lambda: BipartiteGraph.build(random_pairs(300, 300, 0.2, seed=1), 300, 300),
    lambda: BipartiteGraph.build(random_pairs(200, 200, 0.1, seed=1), 200, 200),
    lambda: BipartiteGraph.build(random_pairs_m(20_000, 20_000, 60_000, seed=2)),
    lambda: one_wedge_hubs(1 << 16, 3),
], ids=["dense-300", "dense-200", "sparse-20000", "one-wedge-hubs"])


class TestFootprint:
    @FOOTPRINT_GRAPHS
    def test_workers_fit_the_measured_chunk_peaks(self, monkeypatch, make):
        # The tracemalloc peak of folding any chunk of any strategy's queue,
        # either way (credit array aside), read 0.03 to 4 entries a wedge
        # and 21 to 176 bytes a wedge on these graphs.  Half of memory holds
        # as many workers at that peak as _workers allows, and _workers
        # allows as many as half of twice that memory holds.
        g = make()
        csr, chunks, peaks = fold_peaks(g, assign_priorities(g))
        peak = max(peak for _, peak in peaks)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 64)
        pages = {"SC_PAGE_SIZE": 1}
        monkeypatch.setattr(parallel.os, "sysconf", pages.__getitem__)
        for workers in (1, 2, 5):
            pages["SC_PHYS_PAGES"] = 2 * workers * (peak + parallel.LANE_BYTES)
            assert parallel._workers(csr, chunks) <= workers
            pages["SC_PHYS_PAGES"] *= 2
            assert parallel._workers(csr, chunks) >= workers

    @FOOTPRINT_GRAPHS
    def test_each_chunk_folds_within_its_charge(self, make):
        # Either fold of a chunk peaks within what _workers charges it:
        # WEDGE_BYTES a wedge and ENTRY_BYTES an entry of its starts, under
        # the vertex priority and under count_ibs's layer priority.
        g = make()
        for p in (assign_priorities(g), layer_priority(g)):
            csr, _, peaks = fold_peaks(g, p)
            for rows, peak in peaks:
                assert peak <= chunk_bytes(csr, rows)


def record_fold_threads(monkeypatch, barrier=None):
    """Wrap ``kernel.count_rows`` to record the thread of every fold and
    the most threads alive during one; with ``barrier``, every fold waits
    there, so folds that do not run at the same time break it."""
    real, idents, alive = kernel.count_rows, [], []

    def recording(csr, chunks):
        idents.append(threading.get_ident())
        alive.append(threading.active_count())
        if barrier is not None:
            barrier.wait()
        return real(csr, chunks)

    monkeypatch.setattr(kernel, "count_rows", recording)
    return idents, alive


class TestThreadPool:
    @pytest.mark.skipif(parallel._cpu_limit() < 2, reason="needs 2 CPUs")
    def test_two_busy_lanes_fold_on_two_threads(self, monkeypatch):
        g = busy_graph()
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        idents, _ = record_fold_threads(monkeypatch, threading.Barrier(2, timeout=10))
        _, lanes = count_parallel(g, assign_priorities(g), ScheduleConfig(threads=2))
        assert all(t.wedges_processed for t in lanes)
        assert len(set(idents)) == 2 and threading.get_ident() not in idents

    def test_no_more_threads_than_cpus(self, monkeypatch):
        # A chunk cap of one makes every start its own chunk: most lanes get rows.
        g = busy_graph()
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 1)
        before = threading.active_count()
        idents, alive = record_fold_threads(monkeypatch)
        _, lanes = count_parallel(g, assign_priorities(g), ScheduleConfig(threads=64))
        assert len(idents) == 64 and sum(1 for t in lanes if t.wedges_processed) > 32
        assert len(set(idents)) <= parallel._cpu_limit()
        assert max(alive) <= before + parallel._cpu_limit()
        assert threading.active_count() == before

    def test_one_cpu_folds_the_same_lanes_inline(self, monkeypatch):
        g = busy_graph()
        p = assign_priorities(g)
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        configs = [ScheduleConfig(mode=mode, strategy=strategy, threads=threads, seed=5)
                   for mode in MODES for strategy in STRATEGIES for threads in (2, 3, 8)]
        threaded = [count_parallel(g, p, cfg) for cfg in configs]
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 1)
        idents, _ = record_fold_threads(monkeypatch)
        for cfg, (report, lanes) in zip(configs, threaded):
            for _ in range(2):
                inline_report, inline_lanes = count_parallel(g, p, cfg)
                assert inline_lanes == lanes
                assert timeless(inline_report) == timeless(report)
        assert set(idents) == {threading.get_ident()}

    def test_lanes_without_wedges_start_no_worker(self, monkeypatch):
        # The four-cycle's two wedges start at its top-ranked vertex, so
        # static priority lane 1 holds vertices without wedges: one lane
        # has work and it folds here.
        g = four_cycle()
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 2)
        idents, _ = record_fold_threads(monkeypatch)
        before = threading.active_count()
        cfg = ScheduleConfig(mode="static", strategy="priority", threads=2)
        _, lanes = count_parallel(g, assign_priorities(g), cfg)
        assert [(t.wedges_processed, t.vertices_handled) for t in lanes] == [(2, 2), (0, 2)]
        assert idents == [threading.get_ident()] * 2
        assert threading.active_count() == before

    @pytest.mark.skipif(parallel._cpu_limit() < 2, reason="needs 2 CPUs")
    def test_count_vpp_folds_two_lanes_at_once(self, monkeypatch):
        g = busy_graph()
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 2)
        idents, _ = record_fold_threads(monkeypatch, threading.Barrier(2, timeout=10))
        assert timeless(count_vpp(g, assign_priorities(g))) == \
            CountReport(477, 784, 70, 464, 784, 0.0)
        assert len(idents) == len(set(idents)) == 2 and threading.get_ident() not in idents

    def test_one_cpu_folds_count_vpp_inline(self, monkeypatch):
        g = busy_graph()
        p = assign_priorities(g)
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 2)
        idents, _ = record_fold_threads(monkeypatch)
        threaded = count_vpp(g, p)
        assert len(idents) == 2 and threading.get_ident() not in idents
        idents.clear()
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 1)
        before = threading.active_count()
        assert timeless(count_vpp(g, p)) == timeless(threaded)
        assert idents == [threading.get_ident()]
        assert threading.active_count() == before

    def test_one_slice_folds_in_the_calling_thread(self, monkeypatch):
        g = BipartiteGraph.build(hub_pairs(40))
        idents, _ = record_fold_threads(monkeypatch)
        before = threading.active_count()
        _, lanes = count_parallel(g, assign_priorities(g), ScheduleConfig(threads=4))
        assert [t.vertices_handled for t in lanes] == [g.vertex_count, 0, 0, 0]
        assert set(idents) == {threading.get_ident()}
        assert threading.active_count() == before


class TestDefaultSchedule:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_count_vpp_folds_the_lanes_of_count_parallel(self, monkeypatch, cpus):
        # count_vpp runs count_parallel's default schedule, the dynamic plan
        # and the priority queue, on one lane per CPU: a count_rows spy sees
        # the same lanes, as a set on the pool's workers and in lane order
        # when one worker folds them all (memory caps workers, not lanes).
        # Every exact engine's report stays as pinned.
        g = busy_graph()
        p = assign_priorities(g)
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: cpus)
        real, folded = kernel.count_rows, []

        def recording(csr, chunks):
            folded.append([rows.tolist() for rows in chunks])
            return real(csr, chunks)

        monkeypatch.setattr(kernel, "count_rows", recording)
        for inline in (False, True):
            if inline:
                monkeypatch.setattr(parallel, "_workers", lambda *args: 1)
            folded.clear()
            report, lanes = count_parallel(g, p, ScheduleConfig(threads=cpus))
            planned = folded[:]
            folded.clear()
            assert timeless(count_vpp(g, p)) == timeless(report) == \
                CountReport(477, 784, 70, 464, 784, 0.0)
            assert len(planned) == len(lanes) == cpus
            if not inline:
                # Workers fold their lanes in any order.
                folded.sort()
                planned.sort()
            assert folded == planned
        assert timeless(count_vp(g, p)) == CountReport(477, 784, 70, 293, 784, 0.0)
        assert timeless(count_ibs(g)) == CountReport(477, 657, 30, 232, 657, 0.0)


@pytest.mark.parametrize("module", ["bicount.parallel", "bicount.exact", "bicount.edges"])
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # exact and parallel import each other.
    src = os.path.dirname(os.path.dirname(parallel.__file__))
    subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", f"import {module}"],
                   check=True, env={"PYTHONPATH": src, "PATH": os.environ.get("PATH", "")})


# Each lane's (butterflies, wedges, vertices handled) per (mode, strategy,
# lanes) on busy_graph(), with seed 5 and a chunk cap
# of 50 wedges, so the dynamic queue is cut into many slices.
LANE_SPLIT = {
    ("dynamic", "priority", 2): [(249, 397, 40), (228, 387, 30)],
    ("dynamic", "priority", 7): [
        (118, 133, 17), (68, 95, 9), (46, 91, 11), (74, 124, 8), (60, 90, 4),
        (57, 122, 10), (54, 129, 11),
    ],
    ("dynamic", "random", 2): [(261, 393, 34), (216, 391, 36)],
    ("dynamic", "random", 7): [
        (76, 120, 11), (63, 93, 8), (52, 123, 12), (85, 124, 11), (72, 109, 8),
        (53, 89, 8), (76, 126, 12),
    ],
    ("dynamic", "heuristic", 2): [(240, 371, 34), (237, 413, 36)],
    ("dynamic", "heuristic", 7): [
        (64, 109, 7), (62, 98, 6), (41, 136, 17), (101, 130, 12), (87, 91, 5),
        (66, 127, 10), (56, 93, 13),
    ],
    ("static", "priority", 2): [(250, 392, 39), (227, 392, 31)],
    ("static", "priority", 7): [
        (77, 118, 14), (68, 116, 9), (81, 108, 12), (58, 113, 9), (62, 108, 10),
        (58, 112, 11), (73, 109, 5),
    ],
    ("static", "random", 2): [(233, 392, 34), (244, 392, 36)],
    ("static", "random", 7): [
        (63, 118, 10), (82, 110, 8), (99, 117, 11), (63, 108, 8), (62, 106, 13),
        (52, 119, 10), (56, 106, 10),
    ],
    ("static", "heuristic", 2): [(233, 392, 37), (244, 392, 33)],
    ("static", "heuristic", 7): [
        (63, 113, 9), (70, 113, 9), (58, 112, 9), (53, 112, 10), (64, 111, 14),
        (83, 112, 9), (86, 111, 10),
    ],
}


class TestLaneSplit:
    @pytest.mark.parametrize("key", sorted(LANE_SPLIT))
    def test_every_lane_is_pinned(self, monkeypatch, key):
        mode, strategy, threads = key
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        g = busy_graph()
        cfg = ScheduleConfig(mode=mode, strategy=strategy, threads=threads, seed=5)
        report, lanes = count_parallel(g, assign_priorities(g), cfg)
        assert [t.thread for t in lanes] == list(range(threads))
        assert [(t.butterflies, t.wedges_processed, t.vertices_handled)
                for t in lanes] == LANE_SPLIT[key]
        assert timeless(report) == CountReport(477, 784, 70, 464, 784, 0.0)


class TestScheduleConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(mode="chaotic")

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(strategy="vibes")

    def test_rejects_nonpositive_threads(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(threads=0)
