from bicount.exact import count_butterflies, count_ibs
from bicount.generate import (complete_pairs, hub_pairs, hub_path_pairs,
                              pairs_to_text, random_pairs, random_pairs_m)
from bicount.graph import BipartiteGraph, parse_edge_list
from helpers import edge_list, timeless


class TestShapes:
    def test_hub_sizes(self):
        g = BipartiteGraph.build(hub_pairs(100))
        assert g.edge_count == 400
        assert g.upper_count == g.lower_count == 102

    def test_hub_asymmetric(self):
        g = BipartiteGraph.build(hub_pairs(10, 4))
        # C(10,2) + C(4,2) butterflies.
        assert count_ibs(g).butterflies == 45 + 6

    def test_hub_path_sizes(self):
        g = BipartiteGraph.build(hub_path_pairs(100))
        assert g.edge_count == 300
        assert g.vertex_count == 202
        assert count_ibs(g).butterflies == 0

    def test_complete(self):
        g = BipartiteGraph.build(complete_pairs(4, 3))
        assert g.edge_count == 12
        assert count_ibs(g).butterflies == 6 * 3

    def test_random_probability_bounds(self):
        pairs = random_pairs(10, 10, 0.5, seed=3)
        assert len(set(pairs)) == len(pairs)
        assert all(0 <= a < 10 and 0 <= b < 10 for a, b in pairs)

    def test_random_exact_edge_count(self):
        pairs = random_pairs_m(50, 40, 777, seed=3)
        assert len(pairs) == 777
        assert len(set(pairs)) == 777

    def test_random_is_seeded(self):
        assert random_pairs(8, 8, 0.4, seed=5) == random_pairs(8, 8, 0.4, seed=5)
        assert random_pairs_m(8, 8, 20, seed=5) == random_pairs_m(8, 8, 20, seed=5)


class TestRoundTrip:
    def test_generated_text_parses_back_identically(self):
        for pairs in (hub_pairs(20), hub_path_pairs(20), complete_pairs(4, 5),
                      random_pairs(12, 9, 0.3, seed=1)):
            g = parse_edge_list(pairs_to_text(pairs, header="case"))
            text = pairs_to_text(zip(*g.edge_labels()))
            assert pairs_to_text(zip(*parse_edge_list(text).edge_labels())) == text
            assert sorted(pairs) == sorted(
                (g.external_labels[u], g.external_labels[v]) for u, v in edge_list(g))

    def test_build_matches_parse_for_generators(self):
        # In-memory construction and file parsing must agree on internal
        # IDs, or instrumentation numbers would drift between the two.
        pairs = hub_pairs(30)
        built = BipartiteGraph.build(pairs)
        parsed = parse_edge_list(pairs_to_text(pairs))
        assert edge_list(built) == edge_list(parsed)
        assert built.degrees.tolist() == parsed.degrees.tolist()
        a = count_butterflies(built, "vp")
        b = count_butterflies(parsed, "vp")
        assert timeless(a) == timeless(b)
