"""Synthetic bipartite graphs for tests, demos and ``bicount gen``
(the benchmark in ``perfbench/`` draws its own inputs).

All generators return (upper-label, lower-label) pairs in a deterministic
order, so the dense first-seen ID assignment of the parser (and of
``BipartiteGraph.build``) is reproducible.  A graph is built with
``BipartiteGraph.build(*_pairs(...))``; ``complete_graph`` is kept only
for the self-test of ``perfbench/``.
"""

from __future__ import annotations

import random

from .graph import BipartiteGraph


def hub_pairs(a: int, b: int | None = None) -> list[tuple[int, int]]:
    """Bimodal hub graph: upper hubs 0 and 1 cover lower vertices 0..a-1;
    lower hubs a and a+1 cover upper vertices 2..b+1.

    Contains C(a,2) + C(b,2) butterflies; the hub-vs-spoke degree split
    makes layer-based wedge selection quadratically worse than
    priority-based selection.
    """
    if b is None:
        b = a
    pairs = [(0, j) for j in range(a)]
    pairs += [(1, j) for j in range(a)]
    for i in range(2, b + 2):
        pairs.append((i, a))
        pairs.append((i, a + 1))
    return pairs


def hub_path_pairs(a: int) -> list[tuple[int, int]]:
    """One hub per layer plus a matching: upper 0 covers lowers 0..a-1,
    lower a covers uppers 1..a, and lower j also joins upper j+1.
    Butterfly-free, but full of wedges through the hubs."""
    pairs = [(0, j) for j in range(a)]
    pairs += [(i, a) for i in range(1, a + 1)]
    pairs += [(j + 1, j) for j in range(a)]
    return pairs


def complete_pairs(r: int, l: int) -> list[tuple[int, int]]:
    """Complete r x l biclique."""
    return [(i, j) for i in range(r) for j in range(l)]


def random_pairs(r: int, l: int, edge_probability: float, seed: int) -> list[tuple[int, int]]:
    """Each of the r*l possible edges kept independently; seeded."""
    rng = random.Random(seed)
    return [(i, j) for i in range(r) for j in range(l)
            if rng.random() < edge_probability]


def random_pairs_m(r: int, l: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Exactly m distinct edges drawn uniformly; suits sparse large graphs
    where per-pair sampling would be quadratic."""
    if m > r * l:
        raise ValueError(f"cannot place {m} distinct edges in a {r}x{l} grid")
    rng = random.Random(seed)
    cells = rng.sample(range(r * l), m)
    return [(c // l, c % l) for c in cells]


def complete_graph(r: int, l: int) -> BipartiteGraph:
    return BipartiteGraph.build(complete_pairs(r, l), r, l)


def pairs_to_text(pairs, header: str | None = None) -> str:
    lines = [] if header is None else [f"% {header}\n"]
    lines += [f"{u} {v}\n" for u, v in pairs]
    return "".join(lines)
