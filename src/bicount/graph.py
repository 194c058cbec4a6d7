"""Bipartite graph representation, edge-list parsing, vertex priorities,
and priority-sorted adjacency.

Internal vertex IDs are dense: lower-layer vertices occupy [0, lower_count)
and upper-layer vertices occupy [lower_count, lower_count + upper_count),
so every upper ID is strictly greater than every lower ID.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParseError

COMMENT_PREFIXES = ("%", "#")


class BipartiteGraph:
    """Immutable two-layer adjacency structure.

    Edges are stored as (upper, lower) internal-ID pairs; the order of the
    edge sequence is the canonical edge index used by per-edge counters.
    `external_labels[v]` is the label the vertex had in the input file (the
    two layers have independent label namespaces).  Treat instances as
    frozen after construction; they are safe to share across threads.
    """

    __slots__ = ("upper_count", "lower_count", "edges", "adjacency",
                 "degrees", "external_labels", "duplicates_dropped")

    def __init__(self, upper_count, lower_count, edges, adjacency, degrees,
                 external_labels, duplicates_dropped=0):
        self.upper_count = upper_count
        self.lower_count = lower_count
        self.edges = edges
        self.adjacency = adjacency
        self.degrees = degrees
        self.external_labels = external_labels
        self.duplicates_dropped = duplicates_dropped

    @property
    def vertex_count(self) -> int:
        return self.upper_count + self.lower_count

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_upper(self, v: int) -> bool:
        return v >= self.lower_count

    def upper_vertices(self) -> range:
        return range(self.lower_count, self.lower_count + self.upper_count)

    def lower_vertices(self) -> range:
        return range(self.lower_count)

    @classmethod
    def build(cls, pairs: Iterable[tuple[int, int]], upper_count: int | None = None,
              lower_count: int | None = None,
              labels: list[int] | None = None) -> "BipartiteGraph":
        """Build a graph from (upper-index, lower-index) pairs.

        Indices are per-layer and dense; explicit layer counts allow
        degree-0 vertices.  Duplicate pairs are dropped and counted.
        ``labels`` are the external labels, lower layer first; by default
        each vertex is labelled with its per-layer index.
        """
        pairs = list(pairs)
        unique = dict.fromkeys(pairs)
        if upper_count is None:
            upper_count = max((u for u, _ in unique), default=-1) + 1
        if lower_count is None:
            lower_count = max((v for _, v in unique), default=-1) + 1
        for u, v in unique:
            if not (0 <= u < upper_count and 0 <= v < lower_count):
                raise ValueError(f"edge ({u}, {v}) outside layer ranges "
                                 f"{upper_count}x{lower_count}")
        edges = [(lower_count + u, v) for u, v in unique]
        if labels is None:
            labels = list(range(lower_count)) + list(range(upper_count))
        return cls._assemble(upper_count, lower_count, edges, labels,
                             len(pairs) - len(edges))

    @classmethod
    def _assemble(cls, upper_count, lower_count, edges, labels, dropped):
        """Build adjacency and degrees from internal-ID (upper, lower) edges."""
        n = upper_count + lower_count
        adjacency = [[] for _ in range(n)]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        degrees = [len(a) for a in adjacency]
        return cls(upper_count, lower_count, edges, adjacency, degrees,
                   labels, dropped)

    def replace_edges(self, edges: list[tuple[int, int]]) -> "BipartiteGraph":
        """Same vertex universe (counts and labels), different edge subset."""
        return BipartiteGraph._assemble(self.upper_count, self.lower_count,
                                        list(edges), self.external_labels, 0)


@dataclass(frozen=True)
class PriorityMap:
    """Total order over vertices: degree-major, internal-ID-minor.

    `priority[v]` is an integer in [1, n]; the n values form a permutation.
    A vertex outranks another iff its degree is larger, or the degrees tie
    and its internal ID is larger (uppers therefore win cross-layer ties).
    """

    priority: list[int]

    def ascending_vertices(self) -> list[int]:
        """Vertex IDs ordered by ascending priority."""
        order = [0] * len(self.priority)
        for v, p in enumerate(self.priority):
            order[p - 1] = v
        return order

    def descending_vertices(self) -> list[int]:
        order = self.ascending_vertices()
        order.reverse()
        return order


def read_edges(lines: Iterable[str], upper_ids: dict[int, int],
               lower_ids: dict[int, int]):
    """Yield the dense (upper, lower) index pair of every edge line.

    Each layer's labels get indices in first-seen order, recorded in
    ``upper_ids`` and ``lower_ids`` (label -> index), so a dict's insertion
    order is its index order.  Blank lines and comments are skipped;
    anything else that is not two nonnegative integers raises ParseError.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(COMMENT_PREFIXES):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected two columns, got {len(tokens)}: {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer label in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(lineno, f"negative label in {line!r}")
        yield upper_ids.setdefault(u, len(upper_ids)), lower_ids.setdefault(v, len(lower_ids))


def parse_edge_list(source: Iterable[str] | str) -> BipartiteGraph:
    """Parse an edge-list stream into a graph.

    Format: one edge per line, two whitespace-separated nonnegative integer
    labels, first column upper-layer and second column lower-layer (the two
    columns are independent namespaces).  Lines starting with '%' or '#'
    and blank lines are ignored.  Labels are remapped to dense internal IDs
    in first-seen order; duplicate edges are dropped and counted on the
    returned graph's `duplicates_dropped`.  An empty stream yields the
    empty graph.
    """
    if isinstance(source, str):
        source = source.splitlines()
    upper_ids: dict[int, int] = {}
    lower_ids: dict[int, int] = {}
    pairs = list(read_edges(source, upper_ids, lower_ids))
    return BipartiteGraph.build(pairs, len(upper_ids), len(lower_ids),
                                list(lower_ids) + list(upper_ids))


def load_edge_list(path) -> BipartiteGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle)


def format_edge_list(g: BipartiteGraph) -> str:
    """Serialize back to the input format using external labels."""
    labels = g.external_labels
    return "".join(f"{labels[u]} {labels[v]}\n" for u, v in g.edges)


def save_edge_list(g: BipartiteGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_edge_list(g))


def degree_priorities(degrees) -> np.ndarray:
    """The degree-major, ID-minor priority of vertices 0..n-1 with the
    given degrees: a permutation of 1..n in which ties in degree resolve
    by ascending vertex ID (a stable sort by degree)."""
    order = np.argsort(np.asarray(degrees, dtype=np.int64), kind="stable")
    priority = np.empty(len(order), dtype=np.int64)
    priority[order] = np.arange(1, len(order) + 1)
    return priority


def assign_priorities(g: BipartiteGraph) -> PriorityMap:
    """Compute the unique degree-major, ID-minor priority permutation."""
    return PriorityMap(degree_priorities(g.degrees).tolist())


def sort_adjacency(g: BipartiteGraph, p: PriorityMap) -> BipartiteGraph:
    """Return a copy whose adjacency lists ascend by neighbor priority.

    Linear time: emitting vertices in ascending priority order into fresh
    lists leaves every list sorted.  Idempotent.
    """
    n = g.vertex_count
    lists: list[list[int]] = [[] for _ in range(n)]
    adjacency = g.adjacency
    for u in p.ascending_vertices():
        for v in adjacency[u]:
            lists[v].append(u)
    return BipartiteGraph(g.upper_count, g.lower_count, g.edges, lists,
                          g.degrees, g.external_labels, g.duplicates_dropped)
