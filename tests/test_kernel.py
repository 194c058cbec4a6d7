"""Property tests for the rank-space wedge kernel behind ``count_ibs``,
``count_vp``, ``count_vpp`` and the per-edge counts, against the
pure-Python loops, the wedge enumerators and the oracles."""

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicount import kernel, parallel
from bicount.edges import brute_force_per_edge, per_edge_counts
from bicount.exact import count_butterflies, count_ibs, count_vp, count_vpp
from bicount.generate import complete_pairs, hub_pairs, hub_path_pairs, random_pairs_m
from bicount.graph import BipartiteGraph, assign_priorities
from helpers import (end_dominant_pass, iter_end_dominant_wedges, iter_start_dominant_wedges,
                     layer_priority, neighbor_lists, ranked_neighbors, start_dominant,
                     timeless, transpose)


@st.composite
def graphs(draw):
    """Small graphs with possibly empty layers, isolated vertices and
    duplicate draws; some get a hub adjacent to the whole other layer, and
    some are transposed."""
    r = draw(st.integers(min_value=0, max_value=8))
    l = draw(st.integers(min_value=0, max_value=8))
    pairs = []
    if r and l:
        pairs = draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, l - 1)),
                              max_size=3 * r * l))
        if draw(st.booleans()):
            pairs += [(0, v) for v in range(l)]
    g = BipartiteGraph.build(pairs, r, l)
    return transpose(g) if draw(st.booleans()) else g


def loop_reference(g):
    """(butterflies, wedges, middle accesses) from the per-start Python loop
    of the end-dominant rule over neighbor lists sorted by priority."""
    pr = assign_priorities(g).tolist()
    adjacency = [sorted(neighbors, key=pr.__getitem__) for neighbors in neighbor_lists(g)]
    counts = [0] * g.vertex_count
    totals = [0, 0, 0]
    for u in range(g.vertex_count):
        for i, x in enumerate(end_dominant_pass(u, adjacency, pr, counts, [])):
            totals[i] += x
    return tuple(totals)


def counted(g):
    return (count_butterflies(g, "vpp"), per_edge_counts(g).per_edge,
            timeless(count_vp(g, assign_priorities(g))))


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def test_matches_the_python_loop_and_the_oracle(self, g):
        report = count_butterflies(g, "vpp")
        butterflies, wedges, middles = loop_reference(g)
        assert (report.butterflies, report.wedges_processed, report.middle_accesses) == \
            (butterflies, wedges, middles)
        assert report.start_accesses == g.vertex_count
        assert report.end_accesses == wedges
        assert butterflies == brute_force_per_edge(g).butterflies

    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.integers(min_value=0))
    def test_count_vp_equals_the_start_dominant_loop_under_either_priority(self, g, seed):
        # The Python loop runs no kernel code; count_ibs is count_vp's
        # wedges under the layer priority.
        shuffled = list(range(1, g.vertex_count + 1))
        random.Random(seed).shuffle(shuffled)
        for p in (assign_priorities(g), np.array(shuffled, dtype=np.int64)):
            vp = count_vp(g, p)
            assert (vp.butterflies, vp.wedges_processed) == start_dominant(ranked_neighbors(g, p))
        ibs = count_ibs(g)
        assert (ibs.butterflies, ibs.wedges_processed) == \
            start_dominant(ranked_neighbors(g, layer_priority(g)))

    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.integers(min_value=0))
    def test_expands_exactly_the_end_dominant_wedges(self, g, seed):
        p = np.arange(1, g.vertex_count + 1)
        random.Random(seed).shuffle(p)
        vertex = np.argsort(p)
        csr = kernel.rank_csr(g, p)
        expanded = Counter()
        for rows in kernel.chunks(csr, np.arange(csr.n)):
            row_entries, ends, _, keys = kernel._expand(csr, rows)
            # Keys number the starts within the chunk: read each start from
            # its (start, middle) entry instead.
            entries = np.repeat(row_entries, ends)
            starts = np.searchsorted(csr.row_offsets, entries, side="right") - 1
            triples = np.stack([starts, csr.columns[entries], keys % csr.n])
            expanded.update(zip(*vertex[triples].tolist()))
        expected = Counter(iter_end_dominant_wedges(g, p))
        assert expanded == expected
        starts = Counter(u for u, _, _ in expected.elements())
        assert csr.wedges.tolist() == [starts[u] for u in vertex.tolist()]
        # count_vp runs this kernel: its start-dominant wedges are these read backwards.
        assert Counter((w, v, u) for u, v, w in iter_start_dominant_wedges(g, p)) == expected

    @pytest.mark.parametrize("r, l, m", [(500, 500, 50_000), (20_000, 20_000, 30_000)],
                             ids=["dense", "sparse"])
    def test_rank_csr_holds_at_most_four_arrays_of_2m_entries(self, r, l, m):
        # Arrays of n + 1 entries are O(n); Python objects need a few KiB.
        g = BipartiteGraph.build(random_pairs_m(r, l, m, seed=4))
        p = assign_priorities(g)
        tracemalloc.start()
        try:
            kernel.rank_csr(g, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * 2 * m + 4 * 8 * (g.vertex_count + 1) + (1 << 12)

    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def test_per_edge_matches_brute_force(self, g):
        ec = per_edge_counts(g)
        assert ec == brute_force_per_edge(g)
        assert all(type(x) is int for x in ec.per_edge)

    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_chunk_cap_of_one_changes_nothing(self, g):
        expected = counted(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "CHUNK_WEDGES", 1)
            report, per_edge, vp = counted(g)
        assert timeless(report) == timeless(expected[0])
        assert per_edge == expected[1]
        assert vp == expected[2]

    def test_cap_of_one_splits_and_overruns(self, monkeypatch):
        # Every start of a hub graph with wedges gets its own chunk, and the
        # hub-side starts each have more wedges than the cap.
        g = BipartiteGraph.build(hub_pairs(6))
        expected = counted(g)
        monkeypatch.setattr(kernel, "CHUNK_WEDGES", 1)
        csr = kernel.rank_csr(g, assign_priorities(g))
        chunks = [int(csr.wedges[rows].sum()) for rows in kernel.chunks(csr, np.arange(csr.n))]
        assert len(chunks) > 1 and max(chunks) > 1
        report, per_edge, vp = counted(g)
        assert timeless(report) == timeless(expected[0])
        assert per_edge == expected[1]
        assert vp == expected[2]


def disjoint_squares(count: int) -> BipartiteGraph:
    """``count`` disjoint 2x2 bicliques: 4 * count vertices, 2 * count
    end-dominant wedges and ``count`` butterflies, each edge in one."""
    base = 2 * np.repeat(np.arange(count, dtype=np.int64), 4)
    uppers = base + np.tile([0, 0, 1, 1], count)
    lowers = base + np.tile([0, 1, 0, 1], count)
    return BipartiteGraph.from_indices(uppers, lowers, 2 * count, 2 * count,
                                       list(range(2 * count)) * 2)


class TestKeyWidths:
    def test_wide_and_narrow_chunks_count_the_closed_form(self):
        # n = 160,000: the first chunk's 32,768 starts need 64-bit keys
        # (32,768 * n > 2^32), and the last chunk's fewer starts fit 32 bits.
        squares = 40_000
        g = disjoint_squares(squares)
        p = assign_priorities(g)
        csr = kernel.rank_csr(g, p)
        assert csr.n == 4 * squares
        widths = [kernel._expand(csr, rows)[3].dtype
                  for rows in kernel.chunks(csr, np.arange(csr.n))]
        assert widths[0] == np.uint64 and widths[-1] == np.uint32
        expected = (squares, 2 * squares)
        for report in (count_vpp(g, p), count_vp(g, p)):
            assert (report.butterflies, report.wedges_processed) == expected
        assert per_edge_counts(g).per_edge == [1] * g.edge_count
        for threads in (2, 4):
            report, lanes = parallel.count_parallel(g, p, parallel.ScheduleConfig(threads=threads))
            assert (report.butterflies, report.wedges_processed) == expected
            assert sum(lane.butterflies for lane in lanes) == squares

    @pytest.mark.parametrize("keys, bound, packed", [
        # 5 bits of index beside keys below 2^20: one packed uint64 sort.
        (np.array([7, 3, 7, 0, 1 << 19, 3, 3, 2, 9, 1, 0, 5, 7, 2, 8, 4, 6],
                  dtype=np.uint32), 1 << 20, True),
        # Keys near 2^62 leave no room for 5 bits of index: an argsort.
        (np.array([5, 1 << 62, 3, 1 << 62, 0, 9, 2, 7, 1, 1, 8, 4, 6, 2, 3, 0, 5],
                  dtype=np.uint64), (1 << 62) + 1, False),
    ], ids=["packed", "argsort"])
    def test_sort_order_sorts(self, monkeypatch, keys, bound, packed):
        argsorts, argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort", lambda a: argsorts.append(a) or argsort(a))
        sorted_keys, order = kernel._sort_order(keys, bound)
        assert bool(argsorts) != packed
        assert np.array_equal(keys[order], np.sort(keys))
        assert np.array_equal(sorted_keys, np.sort(keys))


# Each dtype with the lowest value of a window of 16 at either end of its range.
KEY_WINDOWS = [(np.uint32, 0), (np.uint32, (1 << 32) - 16), (np.uint64, 0),
               (np.uint64, (1 << 64) - 16), (np.int64, -1 << 63), (np.int64, (1 << 63) - 16)]


class TestRepeatedRuns:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(KEY_WINDOWS), st.lists(st.integers(0, 15), max_size=80))
    @example(KEY_WINDOWS[0], [])
    @example(KEY_WINDOWS[3], [7])
    @example(KEY_WINDOWS[4], [5] * 9)
    @example(KEY_WINDOWS[5], list(range(16)))
    def test_matches_a_counter(self, window, offsets):
        dtype, low = window
        keys = np.array(sorted(low + x for x in offsets), dtype=dtype)
        counts = Counter(keys.tolist())
        starts, lengths = kernel.repeated_runs(keys)
        firsts = np.cumsum([0] + list(counts.values()))[:-1]
        expected = [(int(first), c) for first, c in zip(firsts, counts.values()) if c > 1]
        assert list(zip(starts.tolist(), lengths.tolist())) == expected
        assert keys[starts].tolist() == [k for k, c in counts.items() if c > 1]


def credit_per_edge(g, cap=None):
    """``credit_rows`` over every start of ``g``, mapped to its edges."""
    csr = kernel.rank_csr(g, assign_priorities(g))
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(kernel, "CHUNK_WEDGES", cap)
        per_entry = kernel.credit_rows(csr, kernel.chunks(csr, np.arange(csr.n)))
    per_edge = np.zeros(g.edge_count, dtype=np.int64)
    np.add.at(per_edge, csr.edges, per_entry)
    return csr, per_entry, per_edge


class TestCreditExtremes:
    @pytest.mark.parametrize("cap", [None, 1])
    @pytest.mark.parametrize("a", [2, 6, 40])
    def test_no_closing_pair_credits_nothing(self, a, cap):
        # Every wedge of the hub path has a (start, end) pair of its own.
        g = BipartiteGraph.build(hub_path_pairs(a))
        csr, per_entry, _ = credit_per_edge(g, cap)
        assert csr.wedges.sum() > 0
        assert not per_entry.any()

    @pytest.mark.parametrize("cap", [None, 1])
    @pytest.mark.parametrize("a, b", [(1, 5), (2, 2), (4, 3), (7, 12)])
    def test_a_biclique_credits_every_edge_alike(self, a, b, cap):
        # Each edge of K_{a,b} lies in (a - 1)(b - 1) butterflies.
        g = BipartiteGraph.build(complete_pairs(a, b))
        _, _, per_edge = credit_per_edge(g, cap)
        assert per_edge.tolist() == [(a - 1) * (b - 1)] * (a * b)
