"""Exact butterfly counting.

Three global counters, each a wedge rule under a priority, all on the
vectorized rank-space kernel (``kernel.py``):

* ``count_vpp``  -- end-dominant counter; the END vertex outranks start
  and middle, under a vertex priority.
* ``count_vp``   -- vertex-priority counter; the start-dominant rule
  (the start outranks the middle and the end) under the same priorities.
  Its wedges are those of ``count_vpp`` read from the other end, so it
  runs ``count_vpp``; only its middle-access count, that of the paper's
  early-stopping walk, differs.
* ``count_ibs``  -- layer-selected baseline; the start-dominant rule under
  a layer priority, so it runs ``count_vpp`` under that priority; only
  its start and middle accesses differ.  The start layer is the one with
  the larger sum of squared degrees, so its opposite side, the middles,
  has the smaller; it outranks the other layer, and inside it a lower ID
  outranks a higher one, so every wedge runs from a start to a start of
  higher ID.

Plus the caterpillar / clustering-coefficient statistics.  The
brute-force oracle is ``edges.brute_force_per_edge``, whose total is the
butterfly count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np

from . import kernel, parallel
from .errors import CountOverflowError
from .graph import BipartiteGraph, assign_priorities, degree_priorities

COUNT_LIMIT = 1 << 128


@dataclass
class CountReport:
    """A butterfly count plus instrumentation for one counting run.

    ``wedges_processed`` counts wedges that passed the active predicate and
    updated a counter; ``end_accesses`` always equals it.  A middle access
    is one examination of a neighbor as a potential wedge middle (including
    the examination that triggers an early break; for ``count_vp`` those of
    the paper's walk, in closed form); a start access is one start-vertex
    visit.  Everything except ``elapsed`` is deterministic.
    """

    butterflies: int
    wedges_processed: int
    start_accesses: int
    middle_accesses: int
    end_accesses: int
    elapsed: float


def check_limit(value: int, what: str) -> int:
    if value >= COUNT_LIMIT:
        raise CountOverflowError(f"{what} exceeded 128 bits")
    return value


def count_ibs(g: BipartiteGraph) -> CountReport:
    """Layer-selected baseline counter; exact on any graph.

    Starts from the upper layer unless the upper layer's squared-degree sum
    is strictly smaller (then the lower layer starts, keeping the heavier
    wedge work off the middles).  Ties keep the upper layer.  The start
    layer outranks the other, and inside it a lower ID outranks a higher
    one.  Its start-dominant wedges are the end-dominant wedges of
    ``count_vpp`` under that priority, so the kernel counts them; every
    start visits all its neighbors as middles, so the start and middle
    accesses are the start layer's size and m.
    """
    t0 = perf_counter()
    n = g.vertex_count
    ids = np.arange(n)
    upper = ids >= g.lower_count
    squares = g.degrees ** 2
    start = ~upper if squares[upper].sum() < squares[~upper].sum() else upper
    report = count_vpp(g, degree_priorities(np.where(start, 2 * n - ids, ids)))
    report.start_accesses = int(start.sum())
    report.middle_accesses = g.edge_count
    report.elapsed = perf_counter() - t0
    return report


def count_vp(g: BipartiteGraph, p: np.ndarray) -> CountReport:
    """Vertex-priority counter over any graph and priorities ``p``.

    Processes wedge (u, v, w) only when u outranks both v and w.  These are
    the end-dominant wedges (w, v, u) of ``count_vpp``, so its kernel gives
    the butterflies and wedges.  The middle accesses are those of the
    paper's walk, which visits a start's neighbors ascending by priority
    and stops at the first one outranking the start: each edge once at its
    higher end, plus one stop at each vertex some neighbor outranks.  They
    are computed in closed form, not counted by the kernel.
    """
    t0 = perf_counter()
    report = count_vpp(g, p)
    outranked = np.where(p[g.uppers] < p[g.lowers], g.uppers, g.lowers)
    report.middle_accesses = g.edge_count + int(np.count_nonzero(np.bincount(outranked)))
    report.elapsed = perf_counter() - t0
    return report


def count_vpp(g: BipartiteGraph, p: np.ndarray) -> CountReport:
    """End-dominant counter over any graph and priorities ``p``.

    Processes wedge (u, v, w) only when w outranks both u and v; the
    rank-space kernel aggregates them in sorted chunks, on the lanes
    ``parallel.fold_lanes`` deals.
    Every start and every directed adjacency entry (as a middle) is
    visited once, so the access counters are n and 2m.
    """
    t0 = perf_counter()
    csr = kernel.rank_csr(g, p)
    butterflies, wedges = map(sum, zip(*parallel.fold_lanes(csr, kernel.count_rows)))
    check_limit(butterflies, "butterfly count")
    return CountReport(butterflies, wedges, g.vertex_count, 2 * g.edge_count,
                       wedges, perf_counter() - t0)


def prepare_vpp(g: BipartiteGraph) -> tuple[BipartiteGraph, np.ndarray, None]:
    """``(g, assign_priorities(g), None)``: the graph as it is, its
    priorities, and no projection mapping.

    The rank-space kernel relabels vertices by priority itself, so no
    engine needs a projected or sorted copy.  Its only caller is
    ``perfbench/ops.py``, which unpacks the three values; ``bicount`` does
    not export it.
    """
    return g, assign_priorities(g), None


def count_butterflies(g: BipartiteGraph, algo: str = "vpp") -> CountReport:
    """Run one of the exact engines on a raw graph."""
    if algo == "ibs":
        return count_ibs(g)
    if algo == "vp":
        return count_vp(g, assign_priorities(g))
    if algo == "vpp":
        return count_vpp(g, assign_priorities(g))
    raise ValueError(f"unknown algorithm {algo!r}")


def count_caterpillars(g: BipartiteGraph) -> int:
    """Exact number of three-edge simple paths, in O(m).

    Each three-path has a unique middle edge (u, v) and is determined by
    one extra neighbor on each side, giving (deg(u)-1) * (deg(v)-1) paths
    anchored at that edge.
    """
    spare = g.degrees - 1
    # The paths through upper vertex u's edges number at most (deg(u)-1) * m,
    # so each term and the total stay below m**2: exact in int64 for any
    # graph that fits in memory.
    return check_limit(int((spare[g.uppers] * spare[g.lowers]).sum()), "caterpillar count")


def clustering_from_counts(butterflies: int, caterpillars: int) -> Fraction | None:
    """4 * butterflies / caterpillars, or None when there are no caterpillars."""
    return Fraction(4 * butterflies, caterpillars) if caterpillars else None
