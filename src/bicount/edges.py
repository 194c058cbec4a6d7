"""Exact per-edge butterfly counts.

The engine runs the end-dominant wedge rule in the rank-space kernel
(``kernel.py``): each wedge (u, v, w) whose (u, w) pair closes c wedges
lies in c - 1 butterflies together with each of its two edges, and the
kernel credits the CSR entries of both, which carry their edge ids, so no
edge-index lookup is needed.  A wedge with c = 1 lies in none, so only
the wedges of runs of two or more equal pairs are credited.  The start
vertices fold on one lane per worker ``parallel._workers`` allows, each
summing into an int64 credit array of its own, 2m entries, so lanes never
race; the arrays are added up and mapped to edges once.  The sums are
integers, so the counts are identical for every lane count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel, parallel
from .errors import ConsistencyError, CountOverflowError, GuardError
from .exact import check_limit
from .graph import BipartiteGraph, assign_priorities

BRUTE_FORCE_EDGE_GUARD = 10_000


@dataclass
class EdgeCounts:
    """Per-edge butterfly counts aligned with the graph's canonical edge
    index, plus the total count (the per-edge sum is always 4x the total)."""

    per_edge: list[int]
    butterflies: int


def count_per_edge_evpp(g: BipartiteGraph, p: np.ndarray) -> EdgeCounts:
    """Per-edge counts of ``g`` under any priorities ``p``, following
    g's edge index."""
    csr = kernel.rank_csr(g, p)
    # Each lane holds an int64 credit array: one lane a worker, none without a chunk.
    held = 8 * len(csr.columns)
    chunks = kernel.chunks(csr, np.arange(csr.n)[::-1])
    lanes = parallel._deal(csr, chunks, min(len(chunks), parallel._workers(csr, chunks, held)))
    per_entry, *others = parallel.fold_lanes(csr, kernel.credit_rows, lanes, held)
    for credit in others:
        per_entry += credit
    per_edge = np.zeros(g.edge_count, dtype=np.int64)
    np.add.at(per_edge, csr.edges, per_entry)
    per_edge = per_edge.tolist()
    total4 = sum(per_edge)
    if total4 % 4:
        raise ConsistencyError("per-edge counts do not sum to a multiple of 4")
    butterflies = check_limit(total4 // 4, "butterfly count")
    return EdgeCounts(per_edge, butterflies)


def per_edge_counts(g: BipartiteGraph) -> EdgeCounts:
    """Full pipeline from a raw graph: rank, then count."""
    return count_per_edge_evpp(g, assign_priorities(g))


def brute_force_per_edge(g: BipartiteGraph) -> EdgeCounts:
    """Oracle: enumerate butterflies as quadruples and increment each of
    the four member edges.  Guarded to small graphs."""
    if g.edge_count > BRUTE_FORCE_EDGE_GUARD:
        raise GuardError(f"brute force limited to {BRUTE_FORCE_EDGE_GUARD} edges, "
                         f"got {g.edge_count}")
    index = {edge: i for i, edge in enumerate(zip(g.uppers.tolist(), g.lowers.tolist()))}
    # The lower neighbors of each upper vertex; the loop reads no others.
    neighbor_sets = [set() for _ in range(g.vertex_count)]
    for u, v in index:
        neighbor_sets[u].add(v)
    lowers = list(g.lower_vertices())
    uppers = list(g.upper_vertices())
    per_edge = [0] * g.edge_count
    total = 0
    for a, u in enumerate(uppers):
        nu = neighbor_sets[u]
        for w in uppers[a + 1:]:
            nw = neighbor_sets[w]
            for i, v in enumerate(lowers):
                if v in nu and v in nw:
                    for x in lowers[i + 1:]:
                        if x in nu and x in nw:
                            total += 1
                            per_edge[index[(u, v)]] += 1
                            per_edge[index[(u, x)]] += 1
                            per_edge[index[(w, v)]] += 1
                            per_edge[index[(w, x)]] += 1
    return EdgeCounts(per_edge, total)


def per_vertex_from_edges(ec: EdgeCounts, g: BipartiteGraph) -> list[int]:
    """Derive per-vertex counts: each butterfly through a vertex uses
    exactly two of its incident edges, so the incident sum halves exactly."""
    # No incident sum exceeds the sum of all counts, so int64 is exact below it.
    if sum(ec.per_edge) >= 1 << 63:
        raise CountOverflowError("per-edge counts exceed 64 bits")
    per_edge = np.asarray(ec.per_edge, dtype=np.int64)
    sums = np.zeros(g.vertex_count, dtype=np.int64)
    np.add.at(sums, g.uppers, per_edge)
    np.add.at(sums, g.lowers, per_edge)
    odd = np.flatnonzero(sums % 2)
    if len(odd):
        v = int(odd[0])
        raise ConsistencyError(f"odd incident butterfly sum {sums[v]} at vertex {v}")
    return (sums // 2).tolist()


def edge_counts_tsv(g: BipartiteGraph, ec: EdgeCounts) -> str:
    """TSV rows: external upper label, external lower label, count."""
    return "".join(f"{u}\t{v}\t{c}\n" for u, v, c in zip(*g.edge_labels(), ec.per_edge))
