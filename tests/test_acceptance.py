"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with -s to see them).

The random-graph corpus (criterion 1) is shared by criteria 4, 5, 6, and
10; it is generated once per session with a fixed seed.
"""

import math
import time
from fractions import Fraction

import pytest

from bicount.approx import run_trials
from bicount.edges import brute_force_per_edge, per_edge_counts, per_vertex_from_edges
from bicount.exact import (clustering_from_counts, count_butterflies,
                           count_caterpillars, count_vpp)
from bicount.external import EmConfig, em_count
from bicount.generate import hub_pairs, hub_path_pairs, pairs_to_text, random_pairs_m
from bicount.graph import BipartiteGraph, assign_priorities, parse_edge_list
from bicount.parallel import ScheduleConfig, count_parallel
from helpers import (brute_force_three_paths, edge_list, four_cycle, random_graph_set,
                     star, three_path)

PROBS = (0.05, 0.1, 0.25, 0.5)
CORPUS_SEED = 20240811


class Corpus:
    def __init__(self):
        start = time.perf_counter()
        self.graphs = random_graph_set(200, 40, PROBS, seed=CORPUS_SEED)
        self.ibs = [count_butterflies(g, "ibs") for g in self.graphs]
        self.vp = [count_butterflies(g, "vp") for g in self.graphs]
        self.vpp = [count_butterflies(g, "vpp") for g in self.graphs]
        self.brute = [brute_force_per_edge(g).butterflies for g in self.graphs]
        self.elapsed = time.perf_counter() - start


@pytest.fixture(scope="module")
def corpus():
    return Corpus()


@pytest.fixture(scope="module")
def hub1000():
    return BipartiteGraph.build(hub_pairs(1000))


def test_criterion_01_oracle_equivalence(corpus):
    for g, ibs, vp, vpp, brute in zip(corpus.graphs, corpus.ibs, corpus.vp,
                                      corpus.vpp, corpus.brute):
        assert ibs.butterflies == brute
        assert vp.butterflies == brute
        assert vpp.butterflies == brute
    assert corpus.elapsed < 10.0
    print(f"\ncriterion 1: PASS - 4-way agreement on {len(corpus.graphs)} "
          f"random graphs in {corpus.elapsed:.2f}s")


def test_criterion_02_hub_graph_wedge_counts(hub1000):
    start = time.perf_counter()
    ibs = count_butterflies(hub1000, "ibs")
    vp = count_butterflies(hub1000, "vp")
    vpp = count_butterflies(hub1000, "vpp")
    elapsed = time.perf_counter() - start
    assert hub1000.edge_count == 4000
    assert vp.wedges_processed == 2000
    assert vpp.wedges_processed == 2000
    assert ibs.wedges_processed == 1_000_000
    assert ibs.butterflies == vp.butterflies == vpp.butterflies == 999_000
    assert elapsed < 1.0
    print(f"\ncriterion 2: PASS - hub graph wedges 1,000,000 vs 2,000, "
          f"999,000 butterflies in {elapsed:.2f}s")


def test_criterion_03_hub_path_wedge_counts():
    g = BipartiteGraph.build(hub_path_pairs(1000))
    assert g.vertex_count == 2002 and g.edge_count == 3000
    ibs = count_butterflies(g, "ibs")
    vp = count_butterflies(g, "vp")
    assert ibs.wedges_processed == 500_500
    assert vp.wedges_processed == 2000
    print("\ncriterion 3: PASS - hub-path wedges 500,500 vs 2,000")


def test_criterion_04_wedge_count_equality(corpus):
    for vp, vpp in zip(corpus.vp, corpus.vpp):
        assert vp.wedges_processed == vpp.wedges_processed
    print(f"\ncriterion 4: PASS - start- and end-dominant rules process "
          f"identical wedge counts on {len(corpus.graphs)} graphs")


def test_criterion_05_squared_degree_bound(corpus):
    for g, vp in zip(corpus.graphs, corpus.vp):
        upper_sq = sum(g.degrees[u] ** 2 for u in g.upper_vertices())
        lower_sq = sum(g.degrees[v] ** 2 for v in g.lower_vertices())
        assert vp.wedges_processed <= min(upper_sq, lower_sq)
    # Equality witness: on a star every edge's min degree is the leaf side,
    # so the per-edge min sum meets the smaller squared-degree sum exactly.
    g = star(12)
    min_sum = sum(min(g.degrees[u], g.degrees[v]) for u, v in edge_list(g))
    upper_sq = sum(g.degrees[u] ** 2 for u in g.upper_vertices())
    lower_sq = sum(g.degrees[v] ** 2 for v in g.lower_vertices())
    assert min_sum == min(upper_sq, lower_sq) == 12
    assert count_butterflies(g, "vp").wedges_processed <= min_sum
    print(f"\ncriterion 5: PASS - wedge bound holds on {len(corpus.graphs)} "
          f"graphs; star witnesses bound equality")


def test_criterion_06_conservation_identities(corpus):
    for g, vpp in zip(corpus.graphs, corpus.vpp):
        ec = per_edge_counts(g)
        assert sum(ec.per_edge) == 4 * vpp.butterflies
        per_vertex = per_vertex_from_edges(ec, g)
        assert sum(per_vertex[u] for u in g.upper_vertices()) == 2 * vpp.butterflies
        assert sum(per_vertex[v] for v in g.lower_vertices()) == 2 * vpp.butterflies
    print(f"\ncriterion 6: PASS - edge and vertex conservation identities "
          f"hold on {len(corpus.graphs)} graphs")


def test_criterion_07_parallel_determinism(hub1000):
    start = time.perf_counter()
    graphs = random_graph_set(20, 40, PROBS, seed=CORPUS_SEED + 1) + [hub1000]
    runs = 0
    for g in graphs:
        p = assign_priorities(g)
        expected = count_vpp(g, p).butterflies
        for threads in (1, 2, 4, 8):
            for mode in ("dynamic", "static"):
                for strategy in ("priority", "random", "heuristic"):
                    for seed in (0, 1, 2):
                        cfg = ScheduleConfig(mode=mode, strategy=strategy,
                                             threads=threads, seed=seed)
                        report, _ = count_parallel(g, p, cfg)
                        assert report.butterflies == expected
                        runs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\ncriterion 7: PASS - {runs} parallel runs on {len(graphs)} graphs "
          f"all exact in {elapsed:.1f}s")


def test_criterion_08_external_memory_equivalence(tmp_path):
    start = time.perf_counter()
    pairs = random_pairs_m(20_000, 20_000, 100_000, seed=CORPUS_SEED + 2)
    path = tmp_path / "large.txt"
    path.write_text(pairs_to_text(pairs))
    g = parse_edge_list(path.read_text())
    baseline = count_vpp(g, assign_priorities(g))
    for budget in (1 << 20, 4 << 20, 64 << 20):
        report, io_stats = em_count(str(path), EmConfig(memory_budget=budget))
        assert report.butterflies == baseline.butterflies
        assert io_stats.pairs_emitted == baseline.wedges_processed
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\ncriterion 8: PASS - out-of-core count {baseline.butterflies} "
          f"matches in-memory under 3 budgets in {elapsed:.1f}s")


def test_criterion_09_approximate_unbiasedness(hub1000):
    start = time.perf_counter()
    exact, _ = run_trials(hub1000, 1.0, 1, seed=0, with_exact=False)
    assert exact.estimates == [999_000]  # p = 1 reproduces the exact count bit-for-bit
    trials = 200
    _, summary = run_trials(hub1000, 0.5, trials, seed=CORPUS_SEED,
                            with_exact=False)
    stderr = math.sqrt(float(summary.variance) / trials)
    deviation = abs(float(summary.mean) - 999_000)
    assert deviation <= 3 * stderr
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\ncriterion 9: PASS - mean of {trials} trials deviates "
          f"{deviation:.0f} (<= {3 * stderr:.0f}) from 999,000 in {elapsed:.1f}s")


def test_criterion_10_clustering_coefficient(corpus):
    for g, expected in ((four_cycle(), 1), (three_path(), 0)):
        assert clustering_from_counts(count_butterflies(g).butterflies,
                                      count_caterpillars(g)) == expected
    for g, vpp in zip(corpus.graphs, corpus.vpp):
        assert count_caterpillars(g) == brute_force_three_paths(g)
        cc = clustering_from_counts(vpp.butterflies, count_caterpillars(g))
        if cc is not None:
            assert Fraction(0) <= cc <= Fraction(1)
    print(f"\ncriterion 10: PASS - coefficient exact on the anchors and "
          f"within [0,1] on {len(corpus.graphs)} graphs")


def test_criterion_11_wedge_scaling():
    start = time.perf_counter()
    ratios = {}
    for width in (100, 300, 1000):
        g = BipartiteGraph.build(hub_pairs(width))
        ibs = count_butterflies(g, "ibs").wedges_processed
        vp = count_butterflies(g, "vp").wedges_processed
        ratios[width] = Fraction(ibs, vp)
    assert ratios[300] / ratios[100] >= Fraction(300, 100)
    assert ratios[1000] / ratios[300] >= Fraction(1000, 300)
    assert ratios[1000] > 100
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\ncriterion 11: PASS - wedge ratio grows linearly "
          f"({dict((k, float(v)) for k, v in ratios.items())}) in {elapsed:.1f}s")
