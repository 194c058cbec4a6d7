import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicount.exact as exact
from bicount.edges import brute_force_per_edge, per_edge_counts, per_vertex_from_edges
from bicount.errors import CountOverflowError
from bicount.exact import (clustering_from_counts, count_butterflies,
                           count_caterpillars, count_ibs, count_vp, count_vpp,
                           prepare_vpp)
from bicount.generate import complete_pairs, hub_pairs
from bicount.graph import BipartiteGraph, assign_priorities
from helpers import (brute_force_per_vertex, brute_force_three_paths,
                     complete_3x2, edge_list, end_dominance_example, four_cycle,
                     iter_end_dominant_wedges, iter_start_dominant_wedges,
                     neighbor_lists, random_graph_set, star, three_path, timeless)
from test_kernel import graphs

PROBS = (0.05, 0.1, 0.25, 0.5)


def vp_report(g):
    return count_vp(g, assign_priorities(g))


def vpp_report(g):
    return count_vpp(g, assign_priorities(g))


def vertex_counts(g):
    return per_vertex_from_edges(per_edge_counts(g), g)


class TestTrivialGraphs:
    def test_four_cycle_is_one_butterfly(self):
        g = four_cycle()
        assert brute_force_per_edge(g).butterflies == 1
        assert count_ibs(g).butterflies == 1
        assert vp_report(g).butterflies == 1
        assert vpp_report(g).butterflies == 1

    def test_three_path_has_none(self):
        assert brute_force_per_edge(three_path()).butterflies == 0
        assert vp_report(three_path()).butterflies == 0

    def test_complete_3x2_has_three(self):
        g = complete_3x2()
        assert brute_force_per_edge(g).butterflies == 3
        assert count_ibs(g).butterflies == 3
        assert vp_report(g).butterflies == 3
        assert vpp_report(g).butterflies == 3

    def test_empty_graph_all_zero(self):
        g = BipartiteGraph.build([], upper_count=0, lower_count=0)
        report = vp_report(g)
        assert report.butterflies == 0
        assert report.wedges_processed == 0

    def test_unknown_algorithm_is_refused(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            count_butterflies(four_cycle(), "bogus")


class TestHubGraph:
    # Module-scale hub (width 60); the full-width run lives in acceptance.
    WIDTH = 60

    def test_counts_and_wedges(self):
        g = BipartiteGraph.build(hub_pairs(self.WIDTH))
        h = self.WIDTH
        expected = 2 * (h * (h - 1) // 2)
        ibs = count_ibs(g)
        vp = vp_report(g)
        vpp = vpp_report(g)
        assert ibs.butterflies == vp.butterflies == vpp.butterflies == expected
        assert ibs.wedges_processed == h * h
        assert vp.wedges_processed == 2 * h
        assert vpp.wedges_processed == 2 * h

    def test_access_breakdown(self):
        g = BipartiteGraph.build(hub_pairs(self.WIDTH))
        vp = vp_report(g)
        assert vp.start_accesses == g.vertex_count
        assert vp.end_accesses == vp.wedges_processed
        ibs = count_ibs(g)
        assert ibs.start_accesses == g.upper_count
        assert ibs.middle_accesses == g.edge_count


def power_law_graph(exponent, side=2000, draws=20000):
    """``draws`` edges whose layer indices are drawn with weight
    1/(i+1)^exponent from ``side`` labels, all upper ends first, then all
    lower ends, duplicates dropped."""
    rng = random.Random(3)
    cum = list(accumulate((i + 1) ** -exponent for i in range(side)))
    uppers = rng.choices(range(side), cum_weights=cum, k=draws)
    lowers = rng.choices(range(side), cum_weights=cum, k=draws)
    return BipartiteGraph.build(list(zip(uppers, lowers)))


class TestPriorityAgainstLayers:
    # The paper's claim as exact work counters: on the flat graph the layer
    # baseline (ibs) processes fewer wedges than vertex priority (vp), and
    # the more skewed the degrees, the more wedges vertex priority saves:
    # ibs / vp is 0.87, 1.20, 3.06 and 5.69.
    # Rows: exponent, edges, butterflies, ibs wedges, vp wedges.
    SWEEP = [
        (0.0, 19949, 2485, 99163, 114232),
        (0.4, 19904, 10542, 144847, 121021),
        (0.8, 17617, 596982, 552168, 180290),
        (1.2, 8667, 734238, 492518, 86537),
    ]

    @pytest.mark.parametrize("exponent, edges, butterflies, ibs_wedges, vp_wedges", SWEEP)
    def test_wedge_counters_are_pinned(self, exponent, edges, butterflies, ibs_wedges,
                                       vp_wedges):
        g = power_law_graph(exponent)
        ibs, vp = count_ibs(g), vp_report(g)
        assert g.edge_count == edges
        assert ibs.butterflies == vp.butterflies == butterflies
        assert (ibs.wedges_processed, vp.wedges_processed) == (ibs_wedges, vp_wedges)


class TestEndDominantRule:
    def test_wedges_through_the_shared_middle(self):
        g = end_dominance_example()
        middle = 4  # the shared upper vertex
        p = assign_priorities(g)
        start_rule = [w for w in iter_start_dominant_wedges(g, p) if w[1] == middle]
        end_rule = [w for w in iter_end_dominant_wedges(g, p) if w[1] == middle]
        assert len(start_rule) == len(end_rule) == 5
        assert {w[2] for w in start_rule} == {1, 2, 3}
        assert {w[2] for w in end_rule} == {0, 3}

    def test_enumerations_match_reports(self):
        for g in random_graph_set(25, 12, PROBS, seed=5150):
            p = assign_priorities(g)
            assert len(list(iter_start_dominant_wedges(g, p))) == \
                count_vp(g, p).wedges_processed
            assert len(list(iter_end_dominant_wedges(g, p))) == \
                count_vpp(g, p).wedges_processed

    def test_prepare_vpp_keeps_the_graph(self):
        g = end_dominance_example()
        prepared, p, mapping = prepare_vpp(g)
        assert prepared is g and mapping is None
        assert p.tolist() == assign_priorities(g).tolist()


class TestRandomEquivalence:
    def test_all_engines_agree_with_brute_force(self):
        for g in random_graph_set(60, 15, PROBS, seed=99):
            expected = brute_force_per_edge(g).butterflies
            assert count_ibs(g).butterflies == expected
            assert vp_report(g).butterflies == expected
            assert vpp_report(g).butterflies == expected

    def test_wedge_counts_match_between_vp_and_vpp(self):
        for g in random_graph_set(40, 20, PROBS, seed=7):
            assert vp_report(g).wedges_processed == vpp_report(g).wedges_processed

    def test_wedge_bound_of_squared_degrees(self):
        for g in random_graph_set(40, 20, PROBS, seed=11):
            upper_sq = sum(g.degrees[u] ** 2 for u in g.upper_vertices())
            lower_sq = sum(g.degrees[v] ** 2 for v in g.lower_vertices())
            assert vp_report(g).wedges_processed <= min(upper_sq, lower_sq)

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_wedges_within_the_min_degree_bound(self, g):
        # The paper's work bound for BFC-VP: a processed wedge (u, v, w)
        # starts at the end of (u, v) that outranks the other, so by degree
        # at least ties it, and w is one of the other d(v) - 1 neighbors of v.
        d = g.degrees
        bound = int((np.minimum(d[g.uppers], d[g.lowers]) - 1).sum())
        assert vp_report(g).wedges_processed <= bound

    def test_star_witnesses_bound_equality(self):
        # On a star, the per-edge min-degree sum meets the smaller
        # squared-degree sum exactly (every edge min is on the leaf side).
        g = star(9)
        min_sum = sum(min(g.degrees[u], g.degrees[v]) for u, v in edge_list(g))
        upper_sq = sum(g.degrees[u] ** 2 for u in g.upper_vertices())
        lower_sq = sum(g.degrees[v] ** 2 for v in g.lower_vertices())
        assert min_sum == min(upper_sq, lower_sq) == 9
        assert vp_report(g).wedges_processed <= min_sum

    def test_determinism_of_reports(self):
        for g in random_graph_set(5, 20, (0.3,), seed=3):
            assert timeless(vp_report(g)) == timeless(vp_report(g))
            assert timeless(count_ibs(g)) == timeless(count_ibs(g))


def ibs_closed_form(g):
    """(wedges, start accesses, middle accesses) of the layer-selected
    baseline from degrees alone: the upper layer starts unless its
    squared-degree sum is strictly smaller, every pair of neighbors of a
    middle is one wedge, and every edge is one middle access."""
    d = g.degrees
    upper = [d[u] for u in g.upper_vertices()]
    lower = [d[v] for v in g.lower_vertices()]
    if sum(x * x for x in upper) < sum(x * x for x in lower):
        upper, lower = lower, upper
    return sum(x * (x - 1) // 2 for x in lower), len(upper), g.edge_count


def vp_middle_accesses(g, priority):
    """Sum over u of min(deg u, neighbors ranked below u + 1)."""
    return sum(min(len(neighbors), sum(priority[w] < priority[u] for w in neighbors) + 1)
               for u, neighbors in enumerate(neighbor_lists(g)))


class TestClosedForms:
    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.integers(min_value=0))
    def test_ibs_and_vp_counters(self, g, seed):
        ibs = count_ibs(g)
        wedges, starts, middles = ibs_closed_form(g)
        assert (ibs.wedges_processed, ibs.start_accesses, ibs.middle_accesses) == \
            (wedges, starts, middles)
        assert ibs.end_accesses == wedges
        assert ibs.butterflies == brute_force_per_edge(g).butterflies
        shuffled = list(range(1, g.vertex_count + 1))
        random.Random(seed).shuffle(shuffled)
        p = np.array(shuffled, dtype=np.int64)
        vp = count_vp(g, p)
        assert vp.middle_accesses == vp_middle_accesses(g, shuffled)
        assert vp.wedges_processed == len(list(iter_start_dominant_wedges(g, p)))
        assert vp.start_accesses == g.vertex_count
        assert vp.butterflies == ibs.butterflies

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_wedge_counters_against_degree_sums(self, g):
        # Each pair of a middle's neighbors is one ibs wedge, and the layer
        # rule takes its middles from the layer of smaller squared-degree
        # sum, so of smaller sum of C(d, 2): both sums of d are m.  The vp
        # wedges stay within the paper's bound, and that bound within the
        # smaller squared-degree sum, as each edge's min is at most the
        # degree of its end in either layer.
        d = g.degrees
        upper, lower = d[g.lower_count:], d[:g.lower_count]
        pairs = min(int((upper * (upper - 1) // 2).sum()), int((lower * (lower - 1) // 2).sum()))
        assert count_ibs(g).wedges_processed == pairs
        bound = int((np.minimum(d[g.uppers], d[g.lowers]) - 1).sum())
        squares = min(int((upper ** 2).sum()), int((lower ** 2).sum()))
        assert vp_report(g).wedges_processed <= bound <= squares

    def test_squared_degree_tie_starts_from_the_upper_layer(self):
        # Both layers of a four-cycle sum to 8; an isolated vertex makes
        # the layer sizes differ, so the start count shows the layer.
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for g, starts in ((four_cycle(), 2),
                          (BipartiteGraph.build(pairs, upper_count=3, lower_count=2), 3),
                          (BipartiteGraph.build(pairs, upper_count=2, lower_count=3), 2)):
            report = count_ibs(g)
            assert (report.butterflies, report.wedges_processed) == (1, 2)
            assert report.start_accesses == starts == ibs_closed_form(g)[1]


class TestPerVertex:
    def test_four_cycle(self):
        assert vertex_counts(four_cycle()) == [1, 1, 1, 1]

    def test_complete_3x2(self):
        # Internal order: v0, v1, u0, u1, u2.
        assert vertex_counts(complete_3x2()) == [3, 3, 2, 2, 2]

    def test_isolated_vertex_is_zero(self):
        g = BipartiteGraph.build([(0, 0), (0, 1), (1, 0), (1, 1)],
                                 upper_count=2, lower_count=3)
        assert vertex_counts(g)[2] == 0

    def test_matches_quadruple_oracle(self):
        for g in random_graph_set(25, 12, PROBS, seed=21):
            assert vertex_counts(g) == brute_force_per_vertex(g)

    def test_layer_sums_are_twice_the_total(self):
        for g in random_graph_set(25, 12, PROBS, seed=22):
            per_vertex = vertex_counts(g)
            total = brute_force_per_edge(g).butterflies
            assert sum(per_vertex[u] for u in g.upper_vertices()) == 2 * total
            assert sum(per_vertex[v] for v in g.lower_vertices()) == 2 * total


class TestCaterpillars:
    def test_three_path_is_one_caterpillar(self):
        assert count_caterpillars(three_path()) == 1

    def test_four_cycle_has_four(self):
        assert count_caterpillars(four_cycle()) == 4

    def test_complete_3x2_has_twelve(self):
        assert count_caterpillars(complete_3x2()) == 12

    def test_matches_path_enumeration(self):
        for g in random_graph_set(25, 12, PROBS, seed=31):
            assert count_caterpillars(g) == brute_force_three_paths(g)

    def test_complete_300x300_exceeds_32_bits(self):
        # K(r, l) has r * l * (r - 1) * (l - 1) three-paths; this is above 2**32.
        g = BipartiteGraph.build(complete_pairs(300, 300))
        assert g.degrees.dtype == np.int64
        assert count_caterpillars(g) == 300 * 300 * 299 * 299 == 8_046_090_000


class TestClusteringCoefficient:
    # The coefficient as `bicount stats` computes it.
    def test_four_cycle_is_exactly_one(self):
        g = four_cycle()
        assert clustering_from_counts(count_butterflies(g).butterflies,
                                      count_caterpillars(g)) == 1

    def test_three_path_is_zero(self):
        g = three_path()
        assert clustering_from_counts(count_butterflies(g).butterflies,
                                      count_caterpillars(g)) == 0

    def test_empty_graph_is_undefined(self):
        g = BipartiteGraph.build([], upper_count=0, lower_count=0)
        assert clustering_from_counts(count_butterflies(g).butterflies,
                                      count_caterpillars(g)) is None

    def test_always_within_unit_interval(self):
        for g in random_graph_set(25, 15, PROBS, seed=41):
            cc = clustering_from_counts(count_butterflies(g).butterflies,
                                        count_caterpillars(g))
            if cc is not None:
                assert Fraction(0) <= cc <= Fraction(1)


class TestOverflowGuard:
    def test_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(exact, "COUNT_LIMIT", 1)
        with pytest.raises(CountOverflowError):
            count_ibs(four_cycle())
        with pytest.raises(CountOverflowError):
            count_caterpillars(four_cycle())
