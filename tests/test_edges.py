import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from bicount import kernel, parallel
from bicount.edges import (EdgeCounts, brute_force_per_edge, count_per_edge_evpp,
                           edge_counts_tsv, per_edge_counts,
                           per_vertex_from_edges)
from bicount.errors import ConsistencyError, CountOverflowError, GuardError
from bicount.exact import count_vpp
from bicount.generate import complete_pairs, hub_pairs, random_pairs
from bicount.graph import BipartiteGraph, assign_priorities
from helpers import (chunk_bytes, complete_3x2, four_cycle, random_graph_set, three_path,
                     transpose)
from test_kernel import graphs

PROBS = (0.05, 0.1, 0.25, 0.5)


class TestExamples:
    def test_four_cycle_every_edge_in_one_butterfly(self):
        assert per_edge_counts(four_cycle()).per_edge == [1, 1, 1, 1]

    def test_complete_3x2_every_edge_in_two(self):
        ec = per_edge_counts(complete_3x2())
        assert ec.per_edge == [2] * 6
        assert sum(ec.per_edge) == 4 * 3

    def test_three_path_all_zero(self):
        assert per_edge_counts(three_path()).per_edge == [0, 0, 0]

    def test_brute_force_four_cycle(self):
        assert brute_force_per_edge(four_cycle()).per_edge == [1, 1, 1, 1]

    def test_brute_force_disjoint_union_adds(self):
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1),
                 (2, 2), (2, 3), (3, 2), (3, 3)]
        g = BipartiteGraph.build(pairs)
        ec = brute_force_per_edge(g)
        assert ec.per_edge == [1] * 8
        assert ec.butterflies == 2

    def test_brute_force_guard(self):
        with pytest.raises(GuardError):
            brute_force_per_edge(BipartiteGraph.build(complete_pairs(101, 100)))


class TestOracleEquivalence:
    def test_per_edge_matches_brute_force(self):
        for g in random_graph_set(40, 15, PROBS, seed=61):
            assert per_edge_counts(g).per_edge == brute_force_per_edge(g).per_edge

    def test_conservation_sum_is_four_times_total(self):
        for g in random_graph_set(30, 15, PROBS, seed=62):
            p = assign_priorities(g)
            ec = count_per_edge_evpp(g, p)
            assert sum(ec.per_edge) == 4 * count_vpp(g, p).butterflies
            assert ec.butterflies == count_vpp(g, p).butterflies

    def test_layer_swap_symmetry(self):
        # Counting from either endpoint of an edge is the same number, so
        # transposing the layers must reproduce the per-edge vector.
        for g in random_graph_set(20, 12, PROBS, seed=64):
            assert per_edge_counts(g).per_edge == per_edge_counts(transpose(g)).per_edge


def record_credit_threads(monkeypatch, barrier=None):
    """Wrap ``kernel.credit_rows`` to record the thread of every lane's
    fold; with ``barrier``, every fold waits there, so folds that do not
    run at the same time break it."""
    real, idents = kernel.credit_rows, []

    def recording(csr, chunks):
        idents.append(threading.get_ident())
        if barrier is not None:
            barrier.wait()
        return real(csr, chunks)

    monkeypatch.setattr(kernel, "credit_rows", recording)
    return idents


def busy_graph():
    """Under a chunk cap of 50 wedges, both of its dynamic lanes have wedges."""
    return BipartiteGraph.build(random_pairs(30, 40, 0.2, seed=12), 30, 40)


class TestThreadedCredit:
    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_any_lane_count_matches_brute_force(self, g):
        # A chunk cap of one makes every start its own chunk.
        expected = brute_force_per_edge(g)
        with pytest.MonkeyPatch.context() as mp:
            for chunk in (1, 50):
                mp.setattr(kernel, "CHUNK_WEDGES", chunk)
                for cpus in (1, 2, 3):
                    mp.setattr(parallel, "_cpu_limit", lambda cpus=cpus: cpus)
                    assert per_edge_counts(g) == expected

    def test_more_lanes_than_cores_under_fast_thread_switches(self, monkeypatch):
        # Workers share only the read-only CSR: a lane that wrote into
        # another's credit array would lose counts under frequent switches.
        g = busy_graph()
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 1)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 8)
        expected = brute_force_per_edge(g)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                assert per_edge_counts(g) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(parallel._cpu_limit() < 2, reason="needs 2 CPUs")
    def test_two_lanes_fold_at_the_same_time(self, monkeypatch):
        g = busy_graph()
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 2)
        idents = record_credit_threads(monkeypatch, threading.Barrier(2, timeout=10))
        assert per_edge_counts(g) == brute_force_per_edge(g)
        assert len(set(idents)) == 2 and threading.get_ident() not in idents

    def test_one_chunk_folds_in_the_calling_thread(self, monkeypatch):
        g = BipartiteGraph.build(hub_pairs(40))
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 2)
        idents = record_credit_threads(monkeypatch)
        before = threading.active_count()
        assert per_edge_counts(g) == brute_force_per_edge(g)
        assert idents == [threading.get_ident()]
        assert threading.active_count() == before

    def test_no_lane_is_dealt_without_rows(self, monkeypatch):
        # 64 CPUs and a few chunks: one lane a chunk, and no lane of a
        # sum's folds is handed an empty row set (or a zero credit array).
        g = busy_graph()
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 64)
        sizes = {"count_rows": [], "credit_rows": []}
        for name, seen in sizes.items():
            def recording(csr, chunks, real=getattr(kernel, name), seen=seen):
                seen.append(sum(map(len, chunks)))
                return real(csr, chunks)
            monkeypatch.setattr(kernel, name, recording)
        expected = brute_force_per_edge(g)
        assert per_edge_counts(g) == expected
        assert count_vpp(g, assign_priorities(g)).butterflies == expected.butterflies
        for seen in sizes.values():
            assert len(seen) > 1 and all(seen)

    def test_one_cpu_folds_inline_with_the_same_counts(self, monkeypatch):
        g = busy_graph()
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 2)
        threaded = per_edge_counts(g)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 1)
        idents = record_credit_threads(monkeypatch)
        before = threading.active_count()
        assert per_edge_counts(g) == threaded
        assert idents == [threading.get_ident()]
        assert threading.active_count() == before

    def test_failing_lane_is_raised_after_the_pool_joins(self, monkeypatch):
        # A lane that dies must not leave silently short counts.
        g = busy_graph()
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 2)
        real, calls = kernel.credit_rows, []

        def failing_once(csr, chunks):
            calls.append(threading.get_ident())
            if len(calls) == 2:
                raise MemoryError("simulated")
            return real(csr, chunks)

        monkeypatch.setattr(kernel, "credit_rows", failing_once)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="simulated"):
            per_edge_counts(g)
        assert len(calls) == 2 and threading.get_ident() not in calls
        assert threading.active_count() == before

    def test_short_memory_folds_fewer_lanes_and_never_refuses(self, monkeypatch):
        g = busy_graph()
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 50)
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 3)
        expected = per_edge_counts(g)
        csr = kernel.rank_csr(g, assign_priorities(g))
        held = 8 * len(csr.columns)
        # A worker is charged its credit array, LANE_BYTES and the largest
        # chunk of the highest-priority-first queue: half of five workers'
        # charge holds two workers, not three, and half of three holds one.
        chunks = kernel.chunks(csr, np.arange(csr.n)[::-1])
        worker = held + parallel.LANE_BYTES + max(chunk_bytes(csr, rows) for rows in chunks)
        pages = {"SC_PAGE_SIZE": 1}
        monkeypatch.setattr(parallel.os, "sysconf", pages.__getitem__)
        for memory, workers in ((5 * worker, 2), (3 * worker, 1)):
            pages["SC_PHYS_PAGES"] = memory
            assert parallel._workers(csr, chunks, held) == workers
            idents = record_credit_threads(monkeypatch)
            assert per_edge_counts(g) == expected
            assert len(idents) == workers
        # One byte: not even one worker fits, and the inline fold still counts.
        pages["SC_PHYS_PAGES"] = 1
        assert parallel._workers(csr, chunks, held) == 1
        idents = record_credit_threads(monkeypatch)
        assert per_edge_counts(g) == expected
        assert idents == [threading.get_ident()]


class TestPerVertexFromEdges:
    def test_four_cycle(self):
        g = four_cycle()
        assert per_vertex_from_edges(per_edge_counts(g), g) == [1, 1, 1, 1]

    def test_complete_3x2(self):
        g = complete_3x2()
        assert per_vertex_from_edges(per_edge_counts(g), g) == [3, 3, 2, 2, 2]

    def test_no_butterflies_means_all_zero(self):
        g = three_path()
        assert per_vertex_from_edges(per_edge_counts(g), g) == [0] * 4

    def test_odd_incident_sum_is_an_error(self):
        g = four_cycle()
        bogus = EdgeCounts([1, 0, 0, 0], 0)
        with pytest.raises(ConsistencyError):
            per_vertex_from_edges(bogus, g)

    def test_counts_past_int64_are_an_error(self):
        g = BipartiteGraph.build(complete_pairs(1, 2))
        with pytest.raises(CountOverflowError):
            per_vertex_from_edges(EdgeCounts([2 ** 62, 2 ** 62], 2 ** 61), g)


class TestSerialization:
    def test_tsv_uses_external_labels(self):
        g = complete_3x2()
        out = edge_counts_tsv(g, per_edge_counts(g))
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert lines[0] == "0\t0\t2"
        assert all(line.split("\t")[2] == "2" for line in lines)
