"""Vectorized wedge aggregation in priority-rank space.

Every vertex is relabeled by its rank, priority - 1, under int64
priorities such as ``graph.assign_priorities`` returns (a permutation of 1..n),
and the adjacency becomes one CSR whose rows, and the entries within each
row, ascend by rank.  The end-dominant rule processes a wedge
(start u, middle v, end w) when w outranks both u and v, so the ends of
the directed entry u -> v are the neighbors of v ranked above max(u, v):
a suffix of v's row, past the reverse entry v -> u and past v itself.
The start-dominant wedges of ``count_vp`` are the same wedges read from
the other end, so every engine on this kernel runs the end rule.

Wedges are expanded one chunk of start rows at a time, each chunk holding
about ``CHUNK_WEDGES`` wedges (more only when one start alone has more),
so memory is bounded by the chunk rather than by the total wedge count.
``chunks`` is the only place where rows are cut; a lane that
``parallel.fold_lanes`` folds is its list of chunks, of any rows in any
order, and ``count_rows`` and ``credit_rows`` expand each chunk once.
Within a chunk the (start, end) keys are sorted: a run of length c is c
wedges sharing both endpoints, which close C(c, 2) butterflies, and each
of those wedges lies in c - 1 of them together with both of its edges.
A key is i * n + end, i its start's index among the chunk's starts with
wedges: uint32 when their count times n is at most 2^32, else uint64.  The
CSR build and the credit, which need the sort's order, sort the uint64
``key << b | index`` (b the bit length of the key count) when it fits.
``count_rows`` sums the butterflies of its rows and ``credit_rows`` the
credit of every entry (one int64 array of 2m entries a call), which the
per-edge engine maps to edges once, after adding up its lanes.
This is the in-memory form of the external engine's pair emission and
sort.  Every sum is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph

# Wedges expanded per chunk; a chunk exceeds it only to keep one start whole.
CHUNK_WEDGES = 1 << 16


@dataclass
class RankCsr:
    """Directed adjacency in rank space, entries sorted by (row, column).

    Row r holds entries ``row_offsets[r] : row_offsets[r + 1]``;
    ``columns[e]`` is the rank of entry e's head and ``edges[e]`` the index
    of its edge in the edge order of ``g.uppers``/``g.lowers``, each edge
    having one entry per direction.  The wedges with start r and middle
    ``columns[e]`` end at the entries from ``first_end[e]`` to the end of
    the middle's row; ``wedges[r]`` is the number of wedges with start r.
    ``columns`` and ``first_end`` are int32 when n and 2m are below 2^31,
    else int64; ``row_offsets``, ``wedges`` and ``edges`` are int64.
    """

    n: int
    row_offsets: np.ndarray
    wedges: np.ndarray
    columns: np.ndarray
    edges: np.ndarray
    first_end: np.ndarray


def rank_csr(g: BipartiteGraph, p: np.ndarray) -> RankCsr:
    """Build the rank-space CSR of ``g`` under the priorities ``p``.

    Arrays are freed as soon as they are used: the build holds at most
    four arrays of 2m entries of 8 bytes at a time, besides arrays of n + 1.
    """
    n, m = g.vertex_count, g.edge_count
    uppers, lowers = p[g.uppers] - 1, p[g.lowers] - 1
    keys = np.concatenate([uppers * n + lowers, lowers * n + uppers])
    del uppers, lowers
    keys, sources = _sort_order(keys, n * n)
    row_offsets = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    above_self = np.searchsorted(keys, np.arange(n, dtype=np.int64) * (n + 1), side="right")
    narrow = np.int32 if max(n, 2 * m) < 1 << 31 else np.int64
    columns = (keys % n).astype(narrow)
    del keys
    # The ends of u -> v start past the reverse entry v -> u (the position
    # of u in v's row) and past v's own rank.
    position = np.empty(2 * m, dtype=np.int64)
    position[sources] = np.arange(2 * m)
    first_end = np.empty(2 * m, dtype=narrow)
    first_end[position[:m]] = position[m:]
    first_end[position[m:]] = position[:m]
    del position
    first_end += 1
    np.maximum(first_end, above_self[columns], out=first_end)
    wedges_before = np.zeros(2 * m + 1, dtype=np.int64)
    # "clip" writes to out directly ("raise" buffers 2m entries); no column is out of range.
    np.take(row_offsets[1:], columns, out=wedges_before[1:], mode="clip")
    wedges_before[1:] -= first_end
    np.cumsum(wedges_before, out=wedges_before)
    wedges = np.diff(wedges_before[row_offsets])
    # keys[:m] read each edge upper to lower, keys[m:] lower to upper.
    sources %= m
    return RankCsr(n, row_offsets, wedges, columns, sources, first_end)


def _sort_order(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted keys, order)`` of ``keys``, all below ``bound``, ties in any
    order: one uint64 sort of ``key << b | index`` (b the bit length of
    ``len(keys)``) when ``bound << b`` fits 64 bits, otherwise an argsort."""
    b = len(keys).bit_length()
    if bound << b > 1 << 64:
        order = np.argsort(keys)
        return keys[order], order
    packed = keys.astype(np.uint64)
    packed <<= np.uint64(b)
    packed |= np.arange(len(keys), dtype=np.uint64)
    packed.sort()
    order = (packed & np.uint64((1 << b) - 1)).view(np.int64)
    packed >>= np.uint64(b)
    return packed.view(np.int64), order


def chunk_bounds(counts: np.ndarray, cap: int | None = None) -> list[int]:
    """Where to cut items with ``counts`` wedges each into consecutive
    slices (``np.split`` indices).  A slice holds about ``cap`` wedges
    (``CHUNK_WEDGES`` by default), more only when its first item with
    wedges alone has more; items without wedges ride along."""
    cap = CHUNK_WEDGES if cap is None else cap
    before = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=before[1:])
    total = before[-1]
    stops: list[int] = []
    stop = 0
    while before[stop] < total:
        base = before[stop]
        # At least through the first item with wedges, however many it has.
        stop = max(int(np.searchsorted(before, base + cap, side="right")) - 1,
                   int(np.searchsorted(before, base, side="right")))
        stops.append(stop)
    return stops[:-1]


def ranges(begins: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``begins[i] : begins[i] + counts[i]``."""
    firsts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(begins - firsts, counts)


def _expand(csr: RankCsr, rows: np.ndarray):
    """``(row_entries, ends, positions, keys)`` of the wedges with a start
    in ``rows``.  ``row_entries`` are the (start, middle) entries, each
    the first entry of ``ends`` consecutive wedges; ``positions`` and
    ``keys`` have one element per wedge: its (middle, end) entry and the
    key ``i * n + end``, i the index of its start among the rows with
    wedges (uint32 or uint64)."""
    # Starts without wedges (the top-ranked hubs) would only cost entries.
    rows = rows[csr.wedges[rows] > 0]
    begins = csr.row_offsets[rows]
    degrees = csr.row_offsets[rows + 1] - begins
    row_entries = ranges(begins, degrees)
    first_end = csr.first_end[row_entries]
    ends = csr.row_offsets[1:][csr.columns[row_entries]] - first_end
    positions = ranges(first_end, ends)
    width = np.uint32 if len(rows) * csr.n <= 1 << 32 else np.uint64
    # A start's wedges are consecutive, so one repeat over the starts suffices.
    keys = np.repeat(np.arange(len(rows), dtype=width) * csr.n, csr.wedges[rows])
    keys += csr.columns[positions].astype(width)
    return row_entries, ends, positions, keys


def chunks(csr: RankCsr, rows: np.ndarray) -> list[np.ndarray]:
    """``rows`` cut by ``chunk_bounds`` into the chunks a fold expands, one
    at a time: the only place where a fold's rows are cut."""
    return np.split(rows, chunk_bounds(csr.wedges[rows]))


def run_lengths(sorted_keys: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal values in a sorted array ([0] if empty)."""
    starts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.diff(starts, prepend=0, append=len(sorted_keys))


def count_rows(csr: RankCsr, chunks: list[np.ndarray]) -> tuple[int, int]:
    """(butterflies, wedges) of the wedges starting at the rows of
    ``chunks``, each row array expanded once.  A butterfly's wedges share
    its start, so disjoint row sets partition both totals."""
    butterflies = wedges = 0
    for rows in chunks:
        keys = _expand(csr, rows)[3]
        keys.sort()
        runs = run_lengths(keys)
        butterflies += int((runs * (runs - 1) // 2).sum())
        wedges += len(keys)
    return butterflies, wedges


def credit_rows(csr: RankCsr, chunks: list[np.ndarray]) -> np.ndarray:
    """Per-entry credit (int64, one per CSR entry) of the wedges starting at
    the rows of ``chunks``, each row array expanded once: a wedge whose
    (start, end) pair closes c wedges adds c - 1 to its (start, middle) and
    its (middle, end) entry.  Each (start, middle) entry is credited once
    over its consecutive wedges.  A pair's wedges share its start, so
    disjoint row sets give credits that add up."""
    per_entry = np.zeros(len(csr.columns), dtype=np.int64)
    for rows in chunks:
        row_entries, ends, positions, keys = _expand(csr, rows)
        sorted_keys, order = _sort_order(keys, int(keys.max(initial=0)) + 1)
        runs = run_lengths(sorted_keys)
        del keys, sorted_keys
        credit = np.empty(len(order), dtype=np.int64)
        credit[order] = np.repeat(runs - 1, runs)
        # A (start, middle) entry lies in one chunk only; reduceat reads an
        # empty segment as one element, so entries without wedges are skipped.
        has = ends > 0
        firsts = np.cumsum(ends) - ends
        per_entry[row_entries[has]] += np.add.reduceat(credit, firsts[has])
        np.add.at(per_entry, positions, credit)
    return per_entry
