"""Shared graph builders, independent oracles and pure-Python references
for the test suite."""

from __future__ import annotations

import dataclasses
import io
import random
import shutil
from bisect import bisect_left
from itertools import combinations

import numpy as np

from bicount import parallel
from bicount.errors import ParseError
from bicount.exact import CountReport
from bicount.graph import BipartiteGraph


def files_left_open(monkeypatch, module) -> list[str]:
    """Track the files that ``module`` opens: each ``shutil.rmtree`` call
    adds to the returned list the name of every one still open, so a
    scratch dir removed before its files are closed shows."""
    opened, left_open = [], []
    real_rmtree = shutil.rmtree

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    def rmtree(path, *args, **kwargs):
        left_open.extend(f.name for f in opened if not f.closed)
        real_rmtree(path, *args, **kwargs)

    monkeypatch.setattr(module, "open", tracked_open, raising=False)
    monkeypatch.setattr(shutil, "rmtree", rmtree)
    return left_open


def edge_list(g: BipartiteGraph) -> list[tuple[int, int]]:
    """(upper, lower) internal-ID pairs in edge order."""
    return list(zip(g.uppers.tolist(), g.lowers.tolist()))


def neighbor_lists(g: BipartiteGraph) -> list[list[int]]:
    """Every vertex's neighbors, each list in edge order."""
    adjacency: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in edge_list(g):
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def timeless(report: CountReport) -> CountReport:
    """``report`` with ``elapsed`` cleared: every other field is
    deterministic, so two runs' reports compare equal."""
    return dataclasses.replace(report, elapsed=0.0)


def four_cycle() -> BipartiteGraph:
    return BipartiteGraph.build([(0, 0), (0, 1), (1, 0), (1, 1)])


def three_path() -> BipartiteGraph:
    # u0-v0, u0-v1, u1-v1: a single three-edge path.
    return BipartiteGraph.build([(0, 0), (0, 1), (1, 1)])


def complete_3x2() -> BipartiteGraph:
    return BipartiteGraph.build([(i, j) for i in range(3) for j in range(2)])


def star(leaves: int, center_upper: bool = True) -> BipartiteGraph:
    if center_upper:
        return BipartiteGraph.build([(0, j) for j in range(leaves)])
    return BipartiteGraph.build([(i, 0) for i in range(leaves)])


def end_dominance_example() -> BipartiteGraph:
    """A shared middle (upper 0, internal ID 4) whose four lower neighbors
    are padded so their degrees order as v0 > v3 > middle > v2 > v1."""
    pairs = [(0, 0), (0, 1), (0, 2), (0, 3)]
    pairs += [(k, 0) for k in range(1, 6)]    # v0 degree 6
    pairs += [(k, 3) for k in range(6, 10)]   # v3 degree 5
    pairs += [(10, 2)]                        # v2 degree 2
    return BipartiteGraph.build(pairs)


def transpose(g: BipartiteGraph) -> BipartiteGraph:
    """Swap the two layers, preserving the edge order."""
    l = g.lower_count
    pairs = [(v, u - l) for u, v in edge_list(g)]
    return BipartiteGraph.build(pairs, g.lower_count, g.upper_count)


def random_graph_set(count: int, max_side: int, probs, seed: int):
    """Seeded random bipartite graphs cycling through the edge probabilities."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        r = rng.randint(1, max_side)
        l = rng.randint(1, max_side)
        p = probs[i % len(probs)]
        pairs = [(a, b) for a in range(r) for b in range(l) if rng.random() < p]
        graphs.append(BipartiteGraph.build(pairs, r, l))
    return graphs


def priority_by_comparison(g: BipartiteGraph) -> list[int]:
    """Comparison-sort oracle for the degree-major, ID-minor total order."""
    order = sorted(range(g.vertex_count), key=lambda v: (g.degrees[v], v))
    priority = [0] * g.vertex_count
    for i, v in enumerate(order):
        priority[v] = i + 1
    return priority


def brute_force_per_vertex(g: BipartiteGraph) -> list[int]:
    """Quadruple enumeration crediting all four member vertices."""
    neighbor_sets = [set(a) for a in neighbor_lists(g)]
    lowers = list(g.lower_vertices())
    result = [0] * g.vertex_count
    for u, w in combinations(g.upper_vertices(), 2):
        nu, nw = neighbor_sets[u], neighbor_sets[w]
        for i, v in enumerate(lowers):
            if v in nu and v in nw:
                for x in lowers[i + 1:]:
                    if x in nu and x in nw:
                        result[u] += 1
                        result[w] += 1
                        result[v] += 1
                        result[x] += 1
    return result


def brute_force_three_paths(g: BipartiteGraph) -> int:
    """Enumerate three-edge simple paths one by one around each middle edge."""
    adjacency = neighbor_lists(g)
    total = 0
    for u, v in edge_list(g):
        for a in adjacency[u]:
            if a == v:
                continue
            for d in adjacency[v]:
                if d == u:
                    continue
                total += 1
    return total


def reference_parse(text: str) -> dict:
    """Line-by-line oracle of reading ``text`` as an edge-list file: every
    line through ``strip``, ``split`` and ``int``, IDs from label dicts in
    first-seen order, the first copy of each duplicate kept, adjacency in
    edge order.  Raises ParseError at the first malformed line."""
    upper_ids: dict[int, int] = {}
    lower_ids: dict[int, int] = {}
    pairs = []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith(("%", "#")):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(lineno, "expected two columns")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(lineno, "non-integer label") from None
        if u < 0 or v < 0:
            raise ParseError(lineno, "negative label")
        pairs.append((upper_ids.setdefault(u, len(upper_ids)),
                      lower_ids.setdefault(v, len(lower_ids))))
    lower_count = len(lower_ids)
    edges = [(lower_count + u, v) for u, v in dict.fromkeys(pairs)]
    adjacency: list[list[int]] = [[] for _ in range(lower_count + len(upper_ids))]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return {"edges": edges, "external_labels": list(lower_ids) + list(upper_ids),
            "duplicates_dropped": len(pairs) - len(edges),
            "degrees": [len(a) for a in adjacency], "adjacency": adjacency}


def mixed_label_text(dense_lines: int = 20_000, side: int = 500, seed: int = 7) -> str:
    """An edge list whose labels turn from dense to sparse to huge: lines
    of labels 0..side-1, then edges with labels from 10**12 in both layers,
    as many dense lines again, then edges with labels from 10**30.  The
    dense lines repeat 3 * side seeded edges; the wide and the huge labels
    join four dense ones in each layer and each other, so they close
    butterflies.  Fewer than 2,048 vertices: 16 KiB holds the EM rank table.
    """
    rng = random.Random(seed)
    base = [(rng.randrange(side), rng.randrange(side)) for _ in range(3 * side)]

    def dense():
        return [rng.choice(base) for _ in range(dense_lines)]

    def far(start):
        return ([(start + i, v) for i in range(3) for v in range(4)]
                + [(u, start + j) for u in range(4) for j in range(3)]
                + [(start + i, start + j) for i in range(3) for j in range(3)])

    pairs = dense() + far(10 ** 12) + dense() + far(10 ** 30)
    return "".join(f"{u} {v}\n" for u, v in pairs)


def end_dominant_pass(u: int, adjacency, pr, counts, touched) -> tuple[int, int, int]:
    """One start-vertex pass of the end-dominant rule; returns
    (butterflies, wedges, middle_accesses) and leaves counters zeroed.
    The pure-Python reference the rank-space kernel is tested against,
    over neighbor lists sorted by ascending priority.

    Neighbor lists ascend by priority, so walking them reversed visits
    candidates in descending priority and the walk stops at the first end
    vertex that fails to outrank both the start and the middle.
    """
    pu = pr[u]
    wedges = 0
    middles = 0
    append = touched.append
    for v in adjacency[u]:
        middles += 1
        pv = pr[v]
        limit = pv if pv > pu else pu
        for w in reversed(adjacency[v]):
            if pr[w] <= limit:
                break
            c = counts[w]
            if not c:
                append(w)
            counts[w] = c + 1
            wedges += 1
    butterflies = 0
    for w in touched:
        c = counts[w]
        counts[w] = 0
        if c > 1:
            butterflies += c * (c - 1) // 2
    touched.clear()
    return butterflies, wedges, middles


def layer_priority(g: BipartiteGraph) -> np.ndarray:
    """The layer priority of ``count_ibs``, built without numpy's sorts: the
    start layer (the upper one unless its squared-degree sum is strictly
    smaller) outranks the other; inside it a lower ID outranks a higher
    one, and inside the other a higher ID outranks a lower one."""
    d = g.degrees.tolist()
    upper, lower = list(g.upper_vertices()), list(g.lower_vertices())
    if sum(d[u] ** 2 for u in upper) < sum(d[v] ** 2 for v in lower):
        upper, lower = lower, upper
    priority = np.empty(g.vertex_count, dtype=np.int64)
    priority[lower + upper[::-1]] = np.arange(1, g.vertex_count + 1)
    return priority


def ranked_neighbors(g: BipartiteGraph, priority) -> list[list[int]]:
    """Neighbor lists in rank space (``priority - 1``) under the
    permutation ``priority``: row r holds the ranks of the neighbors of
    the vertex of rank r, ascending."""
    n = g.vertex_count
    rank = priority - 1
    centers = rank[np.concatenate((g.uppers, g.lowers))]
    # One sort of (center, neighbor) packed in an int64 orders both.
    keys = centers * n + rank[np.concatenate((g.lowers, g.uppers))]
    keys.sort()
    flat = (keys % n).tolist()
    stops = np.cumsum(np.bincount(centers, minlength=n)).tolist()
    return [flat[start:stop] for start, stop in zip([0] + stops, stops)]


def start_dominant(rows: list[list[int]]) -> tuple[int, int]:
    """(butterflies, wedges) of the start-dominant rule over rank-space
    neighbor lists, each ascending (``ranked_neighbors``): a pure-Python
    loop that runs no kernel code.

    Wedge (u, v, w) counts when u outranks both v and w: the middles of u
    and the ends of each middle are the prefixes of their rows ranked
    below u.
    """
    counts = [0] * len(rows)
    touched: list[int] = []
    append = touched.append
    butterflies = 0
    wedges = 0
    for u, row in enumerate(rows):
        for v in row[:bisect_left(row, u)]:
            lst = rows[v]
            ends = lst[:bisect_left(lst, u)]
            wedges += len(ends)
            for w in ends:
                c = counts[w]
                if not c:
                    append(w)
                counts[w] = c + 1
        for w in touched:
            c = counts[w]
            counts[w] = 0
            if c > 1:
                butterflies += c * (c - 1) // 2
        touched.clear()
    return butterflies, wedges


def iter_start_dominant_wedges(g: BipartiteGraph, p):
    """Yield every wedge (start, middle, end) the start-dominant rule
    processes: start outranks middle and end.  Instrumentation-grade (no
    early breaks); order-independent of adjacency sorting."""
    pr = p.tolist()
    adjacency = neighbor_lists(g)
    for u in range(g.vertex_count):
        pu = pr[u]
        for v in adjacency[u]:
            if pr[v] < pu:
                for w in adjacency[v]:
                    if pr[w] < pu:
                        yield (u, v, w)


def iter_end_dominant_wedges(g: BipartiteGraph, p):
    """Yield every wedge the end-dominant rule processes: end outranks
    middle and start.  Instrumentation-grade."""
    pr = p.tolist()
    adjacency = neighbor_lists(g)
    for u in range(g.vertex_count):
        pu = pr[u]
        for v in adjacency[u]:
            pv = pr[v]
            for w in adjacency[v]:
                if pr[w] > pu and pr[w] > pv:
                    yield (u, v, w)


def makespan(assignment: list[list[int]], workloads: list[int]) -> int:
    """Maximum per-thread workload sum; every vertex must appear exactly once."""
    seen = [False] * len(workloads)
    for lane in assignment:
        for u in lane:
            if u < 0 or u >= len(workloads) or seen[u]:
                raise ValueError(f"vertex {u} missing or assigned twice")
            seen[u] = True
    if not all(seen):
        raise ValueError(f"vertex {seen.index(False)} unassigned")
    return max((sum(workloads[u] for u in lane) for lane in assignment), default=0)


def chunk_bytes(csr, rows) -> int:
    """What a folding worker is charged for the chunk ``rows`` of ``csr``:
    its wedges at ``WEDGE_BYTES`` and the entries of its starts with wedges
    at ``ENTRY_BYTES``, recounted here start by start."""
    charge = 0
    for r in rows.tolist():
        if csr.wedges[r]:
            entries = int(csr.row_offsets[r + 1] - csr.row_offsets[r])
            charge += int(csr.wedges[r]) * parallel.WEDGE_BYTES + entries * parallel.ENTRY_BYTES
    return charge
