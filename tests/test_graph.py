import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicount import graph
from bicount.approx import run_trials
from bicount.edges import per_edge_counts, per_vertex_from_edges
from bicount.errors import ParseError
from bicount.exact import count_butterflies
from bicount.generate import hub_pairs, pairs_to_text, random_pairs_m
from bicount.graph import BipartiteGraph, LabelIndex, assign_priorities, parse_edge_list
from bicount.parallel import MODES, STRATEGIES, ScheduleConfig, count_parallel
from helpers import (complete_3x2, edge_list, neighbor_lists, priority_by_comparison,
                     ranked_neighbors)


@st.composite
def bipartite_graphs(draw):
    r = draw(st.integers(min_value=0, max_value=8))
    l = draw(st.integers(min_value=0, max_value=8))
    if r and l:
        pairs = draw(st.sets(
            st.tuples(st.integers(0, r - 1), st.integers(0, l - 1)),
            max_size=r * l))
    else:
        pairs = set()
    return BipartiteGraph.build(sorted(pairs), r, l)


class TestParse:
    def test_four_cycle(self):
        g = parse_edge_list("0 0\n0 1\n1 0\n1 1")
        assert (g.upper_count, g.lower_count, g.edge_count) == (2, 2, 4)

    def test_duplicate_edges_dropped_and_counted(self):
        g = parse_edge_list("0 0\n0 0")
        assert g.edge_count == 1
        assert g.duplicates_dropped == 1

    def test_malformed_token_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("x y")

    def test_error_line_number_skips_comments(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list("% header\n0 0\n0\n")

    def test_negative_label_rejected(self):
        with pytest.raises(ParseError, match="negative"):
            parse_edge_list("0 -1")

    def test_three_columns_rejected(self):
        with pytest.raises(ParseError, match="two columns"):
            parse_edge_list("0 1 2")

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("% header\n# other\n\n5 7\n")
        assert g.edge_count == 1
        assert g.external_labels == [7, 5]

    def test_empty_stream_is_empty_graph(self):
        g = parse_edge_list("")
        assert (g.upper_count, g.lower_count, g.edge_count) == (0, 0, 0)

    def test_build_rejects_an_index_outside_the_layer_counts(self):
        with pytest.raises(ValueError, match="outside layer ranges"):
            BipartiteGraph.build([(2, 0)], upper_count=1, lower_count=1)

    def test_accepts_file_objects(self):
        g = parse_edge_list(io.StringIO("3 9\n4 9\n"))
        assert g.upper_count == 2 and g.lower_count == 1

    def test_layers_have_independent_namespaces(self):
        g = parse_edge_list("7 7\n")
        assert g.upper_count == 1 and g.lower_count == 1

    def test_layer_id_invariant(self):
        g = parse_edge_list("0 0\n2 1\n1 1\n")
        assert all(u >= g.lower_count for u, _ in edge_list(g))
        assert all(v < g.lower_count for _, v in edge_list(g))

    def test_round_trip_preserves_labelled_edges(self):
        text = "10 20\n10 21\n11 20\n"
        g = parse_edge_list(text)
        again = pairs_to_text(zip(*g.edge_labels()))
        assert pairs_to_text(zip(*parse_edge_list(again).edge_labels())) == again

    def test_degree_sum_is_twice_edges(self):
        g = parse_edge_list("0 0\n0 1\n1 0\n")
        assert sum(g.degrees) == 2 * g.edge_count


class TestPriorities:
    def test_complete_3x2_order(self):
        # Lowers out-degree the uppers; ties break by internal ID.
        g = complete_3x2()
        p = assign_priorities(g)
        v0, v1, u0, u1, u2 = 0, 1, 2, 3, 4
        assert p[v1] > p[v0] > p[u2] > p[u1] > p[u0]

    def test_distinct_degrees_follow_degree_order(self):
        g = BipartiteGraph.build([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)])
        p = assign_priorities(g)
        order = sorted(range(g.vertex_count), key=lambda v: p[v])
        degs = [g.degrees[v] for v in order]
        assert degs == sorted(degs)

    def test_singleton_gets_priority_one(self):
        g = BipartiteGraph.build([], upper_count=0, lower_count=1)
        assert assign_priorities(g).tolist() == [1]

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs())
    def test_matches_comparison_sort_oracle(self, g):
        assert assign_priorities(g).tolist() == priority_by_comparison(g)

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs())
    def test_is_a_permutation_satisfying_the_comparator(self, g):
        p = assign_priorities(g)
        n = g.vertex_count
        assert sorted(p) == list(range(1, n + 1))
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                expected = (g.degrees[a], a) > (g.degrees[b], b)
                assert (p[a] > p[b]) == expected

    def test_totality_exhaustive_up_to_fifty_vertices(self):
        from helpers import random_graph_set
        for g in random_graph_set(12, 25, (0.1, 0.3), seed=2024):
            p = assign_priorities(g)
            n = g.vertex_count
            assert sorted(p) == list(range(1, n + 1))
            for a in range(n):
                for b in range(a + 1, n):
                    expected = (g.degrees[a], a) > (g.degrees[b], b)
                    assert (p[a] > p[b]) == expected


class TestRankedNeighbors:
    # The rows that the start-dominant loop of the tests (helpers.py) reads.
    def test_complete_3x2_neighbor_order(self):
        # Ranks: u0, u1, u2 (degree 2) are 0, 1, 2; v0, v1 (degree 3) 3, 4.
        g = complete_3x2()
        rows = ranked_neighbors(g, assign_priorities(g))
        assert rows == [[3, 4], [3, 4], [3, 4], [0, 1, 2], [0, 1, 2]]

    def test_degree_zero_vertex_row_is_empty(self):
        # v1 has degree 0, so rank 0.
        g = BipartiteGraph.build([(0, 0)], upper_count=1, lower_count=2)
        assert ranked_neighbors(g, assign_priorities(g)) == [[], [2], [1]]

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs())
    def test_rows_ascend_by_neighbor_rank(self, g):
        priority = assign_priorities(g)
        rows = ranked_neighbors(g, priority)
        rank = (priority - 1).tolist()
        assert len(rows) == g.vertex_count
        for v, neighbors in enumerate(neighbor_lists(g)):
            assert rows[rank[v]] == sorted(rank[w] for w in neighbors)


class TestArrayOnlyPaths:
    def test_timed_paths_leave_the_python_views_unbuilt(self):
        # The graph has no Python views (edge tuples, neighbor lists) to
        # build; the tests make their own (helpers.edge_list, neighbor_lists).
        g = parse_edge_list(pairs_to_text(hub_pairs(6) + random_pairs_m(9, 9, 40, seed=4)))
        assert not hasattr(g, "edges") and not hasattr(g, "adjacency")
        assert count_butterflies(g, "vpp").butterflies > 0
        assert count_butterflies(g, "vp").butterflies > 0
        assert count_butterflies(g, "ibs").butterflies > 0
        per_vertex_from_edges(per_edge_counts(g), g)
        p = assign_priorities(g)
        for mode in MODES:
            for strategy in STRATEGIES:
                count_parallel(g, p, ScheduleConfig(mode, strategy, threads=3))
        run_trials(g, 0.5, 3, seed=1)


def label_batches():
    # Short and long dense int64 batches, which the table serves; then
    # also int64 batches with labels up to 2**62, which convert the index
    # to runs; then also object batches, which promote the runs.
    small = st.integers(0, 60)
    wide = st.integers(2 ** 62 - 3, 2 ** 62)
    huge = st.integers(2 ** 63, 2 ** 63 + 3) | st.integers(2 ** 64 - 2, 2 ** 64 + 1)
    as_int64 = st.lists(small, max_size=24).map(lambda xs: np.array(xs, dtype=np.int64))
    dense = st.builds(lambda side, seed: np.random.default_rng(seed).integers(0, side, 3 * side),
                      st.integers(1, 400), st.integers(0, 2 ** 32))
    as_wide = st.lists(small | wide, max_size=12).map(lambda xs: np.array(xs, dtype=np.int64))
    as_object = st.lists(small | huge, max_size=12).map(lambda xs: np.array(xs, dtype=object))
    stages = (as_int64 | dense, as_int64 | dense | as_wide,
              as_int64 | dense | as_wide | as_object)
    return st.tuples(*(st.lists(stage, max_size=4) for stage in stages)).map(
        lambda parts: sum(parts, []))


class TestLabelIndex:
    @settings(max_examples=300, deadline=None)
    @given(label_batches())
    def test_numbers_labels_as_a_dict_does(self, batches):
        # int64 batches, then int64 batches with labels up to 2**62 and
        # object batches (labels of 2**63 and more) mixed with int64 ones;
        # empty batches and repeated labels.  One stream may go from the
        # table to sorted runs to Python ints; batches of various sizes
        # leave one or several sorted runs to search.
        index, reference = LabelIndex(), {}
        for batch in batches:
            expected = [reference.setdefault(label, len(reference)) for label in batch.tolist()]
            assert index.number(batch).tolist() == expected
            assert len(index) == len(reference)
        assert index.labels() == list(reference)

    def test_object_runs_are_not_copied_again(self):
        # The first batch goes into the table, which the first batch with a
        # label of 2**63 or more converts to one run.  Each such batch
        # promotes the runs to object; runs promoted before are kept as they
        # are, not copied.
        index = LabelIndex()
        index.number(np.arange(100, dtype=np.int64))
        assert index._table is not None and not index._runs
        index.number(np.array([2 ** 63, 5], dtype=object))
        assert index._table is None
        runs = [run for run, _ in index._runs]
        assert [run.dtype for run in runs] == [object, object]
        assert index.number(np.array([7, 2 ** 63], dtype=object)).tolist() == [7, 100]
        assert all(now is before for (now, _), before in zip(index._runs, runs))

    def test_table_holds_a_bounded_number_of_entries_per_label(self):
        # Dense batches, labels rising batch by batch (a file sorted by its
        # first column), and sparse or repeated labels: after every batch a
        # table holds at most TABLE_ENTRIES_PER_LABEL entries per label, and
        # a rising table grows a few times, not once a batch.
        rng = np.random.default_rng(3)
        streams = {
            "dense": [rng.permutation(1000)[:700], rng.integers(0, 1000, 5000)],
            "rising": [np.repeat(np.arange(i, i + 100), 3) for i in range(0, 10_000, 100)],
            "sparse": [np.arange(0, 10_000, 10)],
            "repeated": [np.arange(50), np.full(10_000, 9_999)],
            "late sparse": [np.arange(1000), np.arange(1000, 2000), np.array([10 ** 6])],
        }
        kept = {}
        for name, batches in streams.items():
            index, reference, sizes = LabelIndex(), {}, []
            for batch in batches:
                expected = [reference.setdefault(label, len(reference)) for label in batch.tolist()]
                assert index.number(batch.astype(np.int64)).tolist() == expected
                if index._table is not None:
                    assert len(index._table) <= graph.TABLE_ENTRIES_PER_LABEL * len(index)
                    sizes.append(len(index._table))
            assert index.labels() == list(reference)
            kept[name] = index._table is not None
            assert len(set(sizes)) <= 10, name
        assert kept == {"dense": True, "rising": True, "sparse": False, "repeated": False,
                        "late sparse": False}

    def test_dense_labels_return_to_the_table(self):
        # A first batch of 750 of 20,000 labels is too sparse for a table;
        # once the later batches have numbered most of them, the int64 runs
        # turn back into a table, at most once each time the count doubles.
        rng = np.random.default_rng(11)
        batches = [rng.choice(20_000, 750, replace=False)]
        batches += [rng.integers(0, 20_000, 1000) for _ in range(60)]
        index, reference, forms = LabelIndex(), {}, []
        for batch in batches:
            expected = [reference.setdefault(label, len(reference)) for label in batch.tolist()]
            assert index.number(batch.astype(np.int64)).tolist() == expected
            forms.append("table" if index._table is not None else "runs")
            if index._table is not None:
                assert len(index._table) <= graph.TABLE_ENTRIES_PER_LABEL * len(index)
        assert forms[0] == "runs" and forms[-1] == "table"
        assert forms.index("table") > 0 and "runs" not in forms[forms.index("table"):]
        assert index.labels() == list(reference)

    def test_runs_are_checked_once_a_doubling(self, monkeypatch):
        # Labels that stay sparse: the runs are checked for a table after
        # the first batch and then each time the count has doubled.
        checked = []
        real = LabelIndex._runs_to_table

        def runs_to_table(index):
            checked.append(len(index))
            real(index)
        monkeypatch.setattr(LabelIndex, "_runs_to_table", runs_to_table)
        index = LabelIndex()
        for start in range(0, 100_000, 100):
            index.number(np.arange(start, start + 100, dtype=np.int64) * 1000)
        assert index._table is None and len(index) == 100_000
        assert checked == [100 * 2 ** k for k in range(10)]


# int64 labels that pack beside their indices (labels below 2^46 pack
# beside up to 2^18 indices), labels of 2^62 and more beside at least four
# indices, which do not, and object arrays, which mix labels of 2^63 and
# more with small ones.
packing = st.lists(st.integers(0, 40) | st.integers(0, (1 << 46) - 1), max_size=40).map(
    lambda xs: np.array(xs, dtype=np.int64))
unpacked = st.builds(lambda xs, big, at: np.array(xs[:at] + [big] + xs[at:], dtype=np.int64),
                    st.lists(st.integers(1 << 62, (1 << 62) + 5) | st.integers(0, 5),
                             min_size=3, max_size=40),
                    st.integers(1 << 62, (1 << 62) + 5), st.integers(0, 40))
objects = st.lists(st.integers(0, 5) | st.integers(2 ** 63, 2 ** 63 + 3) | st.just(2 ** 64),
                   max_size=40).map(lambda xs: np.array(xs, dtype=object))


class TestFirstOccurrences:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(packing.map(lambda a: (a, True)), unpacked.map(lambda a: (a, False)),
                     objects.map(lambda a: (a, False))))
    def test_unique_first_is_np_unique(self, drawn):
        values, packs = drawn
        if values.dtype != object:
            assert graph._packs(int(values.max(initial=0)) + 1, len(values)) == packs
        distinct, first, inverse = graph._unique_first(values)
        expected = np.unique(values, return_index=True, return_inverse=True)
        assert distinct.tolist() == expected[0].tolist()
        assert first.tolist() == expected[1].tolist()
        assert inverse.tolist() == expected[2].reshape(-1).tolist()

    @pytest.mark.parametrize("packs", [True, False], ids=["packed", "argsort"])
    def test_from_indices_keeps_the_first_copy_of_each_duplicate(self, monkeypatch, packs):
        # Duplicates in both orders around their first copy, on the packed
        # sort and, forced, on the argsort; each run's first index is kept.
        if not packs:
            monkeypatch.setattr(graph, "_packs", lambda bound, count: False)
        rng = np.random.default_rng(5)
        upper, lower = rng.integers(0, 4, 60), rng.integers(0, 5, 60)
        g = BipartiteGraph.from_indices(upper, lower, 4, 5, list(range(9)))
        pairs = list(zip(upper.tolist(), lower.tolist()))
        kept = list(dict.fromkeys(pairs))
        assert edge_list(g) == [(u + 5, v) for u, v in kept]
        assert g.duplicates_dropped == len(pairs) - len(kept) > 0
