"""Exact butterfly counting.

Three global counters over the same wedge-counting skeleton:

* ``count_ibs``  -- layer-selected baseline; picks the start layer whose
  opposite side has the smaller sum of squared degrees, then processes
  every wedge whose end ID exceeds its start ID.
* ``count_vp``   -- vertex-priority counter; processes only wedges whose
  start vertex outranks both the middle and the end, with early breaks
  over priority-sorted adjacency.
* ``count_vpp``  -- end-dominant counter; processes the same number of
  wedges but requires the END vertex to outrank start and middle.  It runs
  the vectorized rank-space kernel (``kernel.py``), which relabels every
  vertex by its priority rank, under the same priorities as ``count_vp``:
  the two differ only in their wedge rule.

Plus a quadruple-enumeration brute-force oracle and the caterpillar /
clustering-coefficient statistics.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from time import perf_counter

from . import kernel
from .errors import CountOverflowError, GuardError
from .graph import BipartiteGraph, PriorityMap, assign_priorities, sort_adjacency

COUNT_LIMIT = 1 << 128
BRUTE_FORCE_EDGE_GUARD = 10_000


@dataclass
class CountReport:
    """A butterfly count plus instrumentation for one counting run.

    ``wedges_processed`` counts wedges that passed the active predicate and
    updated a counter; ``end_accesses`` always equals it.  A middle access
    is one examination of a neighbor as a potential wedge middle (including
    the examination that triggers an early break); a start access is one
    start-vertex visit.  Everything except ``elapsed`` is deterministic.
    """

    butterflies: int
    wedges_processed: int
    start_accesses: int
    middle_accesses: int
    end_accesses: int
    elapsed: float

    def counters(self) -> tuple[int, int, int, int, int]:
        """The deterministic fields, for equality checks across runs."""
        return (self.butterflies, self.wedges_processed, self.start_accesses,
                self.middle_accesses, self.end_accesses)


def check_limit(value: int, what: str) -> int:
    if value >= COUNT_LIMIT:
        raise CountOverflowError(f"{what} exceeded 128 bits")
    return value


def count_ibs(g: BipartiteGraph) -> CountReport:
    """Layer-selected baseline counter; exact on any graph.

    Starts from the upper layer unless the upper layer's squared-degree sum
    is strictly smaller (then the lower layer starts, keeping the heavier
    wedge work off the middles).  Ties keep the upper layer.
    """
    t0 = perf_counter()
    adjacency = g.adjacency
    degrees = g.degrees
    upper_sq = sum(degrees[u] * degrees[u] for u in g.upper_vertices())
    lower_sq = sum(degrees[v] * degrees[v] for v in g.lower_vertices())
    starts = g.lower_vertices() if upper_sq < lower_sq else g.upper_vertices()

    # Per-middle adjacency sorted by ID so the (end > start) suffix can be
    # sliced instead of filtered; wedge membership is unchanged.
    by_id = [sorted(a) for a in adjacency]
    counts = [0] * g.vertex_count
    touched: list[int] = []
    append = touched.append
    butterflies = 0
    wedges = 0
    middle_accesses = 0
    for u in starts:
        for v in adjacency[u]:
            lst = by_id[v]
            suffix = lst[bisect_right(lst, u):]
            wedges += len(suffix)
            for w in suffix:
                c = counts[w]
                if not c:
                    append(w)
                counts[w] = c + 1
        if touched:
            for w in touched:
                c = counts[w]
                counts[w] = 0
                if c > 1:
                    butterflies += c * (c - 1) // 2
            touched.clear()
        middle_accesses += len(adjacency[u])
    check_limit(butterflies, "butterfly count")
    return CountReport(butterflies, wedges, len(starts), middle_accesses,
                       wedges, perf_counter() - t0)


def count_vp(g: BipartiteGraph, p: PriorityMap) -> CountReport:
    """Vertex-priority counter.  Requires priority-sorted adjacency.

    Processes wedge (u, v, w) only when u outranks both v and w; because
    neighbor lists ascend by priority, each inner loop stops at the first
    neighbor that ties or outranks the start.
    """
    t0 = perf_counter()
    n = g.vertex_count
    adjacency = g.adjacency
    pr = p.priority.tolist()
    counts = [0] * n
    touched: list[int] = []
    append = touched.append
    butterflies = 0
    wedges = 0
    middle_accesses = 0
    for u in range(n):
        pu = pr[u]
        for v in adjacency[u]:
            middle_accesses += 1
            if pr[v] >= pu:
                break
            for w in adjacency[v]:
                if pr[w] >= pu:
                    break
                c = counts[w]
                if not c:
                    append(w)
                counts[w] = c + 1
                wedges += 1
        if touched:
            for w in touched:
                c = counts[w]
                counts[w] = 0
                if c > 1:
                    butterflies += c * (c - 1) // 2
            touched.clear()
    check_limit(butterflies, "butterfly count")
    return CountReport(butterflies, wedges, n, middle_accesses, wedges,
                       perf_counter() - t0)


def count_vpp(g: BipartiteGraph, p: PriorityMap) -> CountReport:
    """End-dominant counter over any graph and priority map.

    Processes exactly as many wedges as ``count_vp`` under the same
    priorities; the rank-space kernel aggregates them in sorted chunks.
    Every start and every directed adjacency entry (as a middle) is
    visited once, so the access counters are n and 2m.
    """
    t0 = perf_counter()
    butterflies, wedges = kernel.count_pairs(g, p)
    check_limit(butterflies, "butterfly count")
    return CountReport(butterflies, wedges, g.vertex_count, 2 * g.edge_count,
                       wedges, perf_counter() - t0)


def prepare_vp(g: BipartiteGraph) -> tuple[BipartiteGraph, PriorityMap]:
    """Priorities assigned and adjacency sorted, ready for ``count_vp``."""
    p = assign_priorities(g)
    return sort_adjacency(g, p), p


def prepare_vpp(g: BipartiteGraph) -> tuple[BipartiteGraph, PriorityMap, None]:
    """``(g, assign_priorities(g), None)``: the graph as it is, its
    priorities, and no projection mapping.

    The rank-space kernel relabels vertices by priority itself, so no
    engine needs a projected or sorted copy.  The three-value shape is kept
    for callers that still unpack one (``perfbench/ops.py``).
    """
    return g, assign_priorities(g), None


def count_butterflies(g: BipartiteGraph, algo: str = "vpp") -> CountReport:
    """Run one of the exact engines on a raw graph."""
    if algo == "ibs":
        return count_ibs(g)
    if algo == "vp":
        return count_vp(*prepare_vp(g))
    if algo == "vpp":
        return count_vpp(g, assign_priorities(g))
    raise ValueError(f"unknown algorithm {algo!r}")


def brute_force_count(g: BipartiteGraph) -> int:
    """Independent oracle: enumerate upper pairs x lower pairs and test the
    four edges by adjacency membership, one butterfly at a time.

    No wedge counters and no binomial arithmetic, so a systematic bug in
    the counting engines cannot be mirrored here.  Guarded to small graphs.
    """
    if g.edge_count > BRUTE_FORCE_EDGE_GUARD:
        raise GuardError(f"brute force limited to {BRUTE_FORCE_EDGE_GUARD} edges, "
                         f"got {g.edge_count}")
    neighbor_sets = [set(a) for a in g.adjacency]
    lowers = list(g.lower_vertices())
    total = 0
    for u, w in combinations(g.upper_vertices(), 2):
        nu = neighbor_sets[u]
        nw = neighbor_sets[w]
        for i, v in enumerate(lowers):
            if v in nu and v in nw:
                for x in lowers[i + 1:]:
                    if x in nu and x in nw:
                        total += 1
    return total


def count_caterpillars(g: BipartiteGraph) -> int:
    """Exact number of three-edge simple paths, in O(m).

    Each three-path has a unique middle edge (u, v) and is determined by
    one extra neighbor on each side, giving (deg(u)-1) * (deg(v)-1) paths
    anchored at that edge.
    """
    degrees = g.degrees
    total = 0
    for u, v in g.edges:
        total += (degrees[u] - 1) * (degrees[v] - 1)
    return check_limit(total, "caterpillar count")


def clustering_coefficient(g: BipartiteGraph) -> Fraction | None:
    """4 * butterflies / caterpillars, or None when there are no caterpillars."""
    cate = count_caterpillars(g)
    if cate == 0:
        return None
    return Fraction(4 * count_butterflies(g, "vpp").butterflies, cate)
