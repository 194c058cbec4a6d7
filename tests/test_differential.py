"""Every engine on one graph, and how the counts move with the input.

One Hypothesis property over ``test_kernel.graphs()``: ibs, vp, vpp, both
parallel modes, the external engine and the pure-Python start-dominant
loop of ``helpers.py``, which runs no kernel code, agree; the per-edge and
per-vertex counts sum to four times the total; and transposing the layers,
permuting the labels, reordering the lines or repeating some of them moves
each per-edge count with its edge and changes no count.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bicount.edges import per_edge_counts, per_vertex_from_edges
from bicount.exact import count_butterflies
from bicount.external import EmConfig, em_count
from bicount.generate import pairs_to_text
from bicount.graph import assign_priorities, parse_edge_list
from bicount.parallel import ScheduleConfig, count_parallel
from helpers import edge_list, layer_priority, ranked_neighbors, start_dominant
from test_kernel import graphs

SMALL_EM = EmConfig(memory_budget=4 * 4096, block_size=4096)


def labelled_counts(g):
    """The total and each edge's count, keyed by its (upper, lower) labels."""
    ec = per_edge_counts(g)
    labels = g.external_labels
    return ec.butterflies, {(labels[u], labels[v]): c
                            for (u, v), c in zip(edge_list(g), ec.per_edge)}


def parsed(pairs):
    return parse_edge_list(pairs_to_text(pairs))


@settings(max_examples=100, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_engines_agree_and_counts_follow_their_edges(g, rng):
    p = assign_priorities(g)
    totals = {algo: count_butterflies(g, algo).butterflies for algo in ("ibs", "vp", "vpp")}
    for mode in ("dynamic", "static"):
        totals[mode] = count_parallel(g, p, ScheduleConfig(mode=mode, threads=3))[0].butterflies
    totals["loop"] = start_dominant(ranked_neighbors(g, layer_priority(g)))[0]
    # A built graph labels each vertex with its index in its layer.
    pairs = [(u - g.lower_count, v) for u, v in edge_list(g)]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "g.txt"
        path.write_text(pairs_to_text(pairs))
        totals["em"] = em_count(path, SMALL_EM)[0].butterflies
    butterflies = totals["vpp"]
    assert totals == dict.fromkeys(totals, butterflies)
    ec = per_edge_counts(g)
    assert sum(ec.per_edge) == sum(per_vertex_from_edges(ec, g)) == 4 * butterflies

    expected = labelled_counts(parsed(pairs))
    assert expected[0] == butterflies

    transposed = labelled_counts(parsed([(v, u) for u, v in pairs]))
    assert transposed == (butterflies, {(v, u): c for (u, v), c in expected[1].items()})

    upper = rng.sample(range(g.upper_count), g.upper_count)
    lower = rng.sample(range(g.lower_count), g.lower_count)
    relabelled = labelled_counts(parsed([(upper[u], lower[v]) for u, v in pairs]))
    assert relabelled == (butterflies, {(upper[u], lower[v]): c
                                        for (u, v), c in expected[1].items()})

    shuffled = rng.sample(pairs, len(pairs))
    h = parsed(shuffled)
    assert list(zip(shuffled, per_edge_counts(h).per_edge)) == \
        [(pair, expected[1][pair]) for pair in shuffled]

    repeats = [rng.choice(pairs) for _ in range(rng.randint(1, 5))] if pairs else []
    h = parsed(rng.sample(pairs + repeats, len(pairs) + len(repeats)))
    assert h.duplicates_dropped == len(repeats)
    assert labelled_counts(h) == expected
