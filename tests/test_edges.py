import pytest

from bicount.edges import (EdgeCounts, brute_force_per_edge, count_per_edge_evpp,
                           edge_counts_tsv, per_edge_counts,
                           per_vertex_from_edges)
from bicount.errors import ConsistencyError, CountOverflowError, GuardError
from bicount.exact import count_vpp
from bicount.generate import complete_graph
from bicount.graph import assign_priorities
from helpers import (complete_3x2, four_cycle, random_graph_set, three_path,
                     transpose)

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
        from bicount.graph import BipartiteGraph
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1),
                 (2, 2), (2, 3), (3, 2), (3, 3)]
        g = BipartiteGraph.build(pairs)
        ec = brute_force_per_edge(g)
        assert ec.per_edge == [1] * 8
        assert ec.butterflies == 2

    def test_brute_force_guard(self):
        with pytest.raises(GuardError):
            brute_force_per_edge(complete_graph(101, 100))


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
        g = complete_graph(1, 2)
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
