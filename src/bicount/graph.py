"""Bipartite graph representation, edge-list parsing and vertex
priorities.

``degree_priorities`` builds both priorities the exact engines use: the
degree-major, ID-minor order of ``assign_priorities`` and the layer
order of ``exact.count_ibs``.  Every engine runs the rank-space kernel
under one of them, which lays the adjacency out as a CSR of its own
(``kernel.rank_csr``).

Internal vertex IDs are dense: lower-layer vertices occupy [0, lower_count)
and upper-layer vertices occupy [lower_count, lower_count + upper_count),
so every upper ID is strictly greater than every lower ID.

Every edge list is read as a text stream in chunks of whole lines
(``text_chunks``), a string as the file of that text is.
``read_label_batches`` parses the chunks of one stream on worker threads,
up to one per CPU, and hands them on in file order.  A chunk whose bytes
are all digits, blanks and line ends, with two runs of digits or none on
every line, is read by numpy's ``fromstring`` in one pass (``_tokenize``);
the calling thread goes line by line only through a chunk it declines.
Labels are numbered in first-seen order by ``LabelIndex``, one chunk at a
time as the reader hands it on (``_numbered``), so the calling thread
numbers a chunk while the workers parse the chunks after it: while the
labels are dense, a direct-address table numbers a batch in one gather;
sparse labels and labels of 2**63 or more are numbered in sorted runs.
Duplicate edges are dropped with one packed sort of ``key << b | index``
(``_sort_order``, which the kernel and the runs share), whose ties keep
input order, so each key's first occurrence heads its run.
"""

from __future__ import annotations

import io
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from itertools import chain, islice
from typing import Iterable, TextIO

import numpy as np

from .errors import ParseError

COMMENT_PREFIXES = ("%", "#")

# The characters the reader parses together, which bounds its memory.
CHUNK_CHARS = 1 << 18

# Bytes a chunk in flight costs per character.  Under tracemalloc, a
# worker's ``_read_chunk`` of 2**17 characters peaked at 9.75 bytes a
# character on every chunk of the skewed benchmark files (seeds 1 and 3)
# and at 8.45 on the uniform ones (seeds 3 and 5); lines as short as
# "1 2\n" peak at 16.3, and chunks of blank lines at 36.
CHUNK_BYTES_PER_CHAR = 10

# The entries a ``LabelIndex`` table may hold per label it has numbered.
TABLE_ENTRIES_PER_LABEL = 4


class BipartiteGraph:
    """Immutable two-layer graph held as arrays.

    Edge i joins ``uppers[i]`` and ``lowers[i]`` (int64 internal IDs); the
    order of the arrays is the canonical edge index used by per-edge
    counters.  ``degrees`` is the int64 array of vertex degrees.
    ``external_labels[v]`` is the label the vertex had in the input file
    (the two layers have independent label namespaces); ``edge_labels``
    gathers them per edge.  Treat instances as frozen after construction;
    they are safe to share across threads.
    """

    __slots__ = ("upper_count", "lower_count", "uppers", "lowers", "degrees",
                 "external_labels", "duplicates_dropped")

    def __init__(self, upper_count, lower_count, uppers, lowers, external_labels,
                 duplicates_dropped=0):
        n = upper_count + lower_count
        self.upper_count = upper_count
        self.lower_count = lower_count
        self.uppers = uppers
        self.lowers = lowers
        self.degrees = np.bincount(uppers, minlength=n) + np.bincount(lowers, minlength=n)
        self.external_labels = external_labels
        self.duplicates_dropped = duplicates_dropped

    @property
    def vertex_count(self) -> int:
        return self.upper_count + self.lower_count

    @property
    def edge_count(self) -> int:
        return len(self.uppers)

    def edge_labels(self) -> tuple[list[int], list[int]]:
        """The external labels of the upper and of the lower end of each
        edge, in edge order, as Python ints (a label may exceed int64)."""
        labels = np.array(self.external_labels, dtype=object)
        return labels[self.uppers].tolist(), labels[self.lowers].tolist()

    def upper_vertices(self) -> range:
        return range(self.lower_count, self.lower_count + self.upper_count)

    def lower_vertices(self) -> range:
        return range(self.lower_count)

    @classmethod
    def build(cls, pairs: Iterable[tuple[int, int]], upper_count: int | None = None,
              lower_count: int | None = None) -> "BipartiteGraph":
        """Build a graph from (upper-index, lower-index) pairs.

        Indices are per-layer and dense; explicit layer counts allow
        degree-0 vertices.  Duplicate pairs are dropped and counted.  Each
        vertex is labelled with its per-layer index.
        """
        pairs = list(pairs)
        if upper_count is None:
            upper_count = max((u for u, _ in pairs), default=-1) + 1
        if lower_count is None:
            lower_count = max((v for _, v in pairs), default=-1) + 1
        for u, v in pairs:
            if not (0 <= u < upper_count and 0 <= v < lower_count):
                raise ValueError(f"edge ({u}, {v}) outside layer ranges "
                                 f"{upper_count}x{lower_count}")
        indices = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return cls.from_indices(indices[:, 0], indices[:, 1], upper_count, lower_count,
                                list(range(lower_count)) + list(range(upper_count)))

    @classmethod
    def from_indices(cls, upper: np.ndarray, lower: np.ndarray, upper_count: int,
                     lower_count: int, labels: list[int]) -> "BipartiteGraph":
        """The graph of the per-layer index arrays ``upper`` and ``lower``
        (edge order), keeping the first copy of each duplicate edge."""
        first = _first_occurrences(upper * lower_count + lower)[3]
        kept = np.zeros(len(upper), dtype=bool)
        kept[first] = True
        return cls(upper_count, lower_count, upper[kept] + lower_count, lower[kept],
                   labels, len(upper) - len(first))

    def replace_edges(self, uppers: np.ndarray, lowers: np.ndarray) -> "BipartiteGraph":
        """Same vertex universe (counts and labels), other edges (internal IDs)."""
        return BipartiteGraph(self.upper_count, self.lower_count, uppers, lowers,
                              self.external_labels)


def _skipped(line: str) -> bool:
    """Whether a stripped line is blank or a comment."""
    return not line or line.startswith(COMMENT_PREFIXES)


def read_edges(lines: Iterable[str], first_line: int = 1):
    """Yield the (upper, lower) label pair of every edge line, as Python
    ints; the first line is numbered ``first_line``.

    Blank lines and comments are skipped; anything else that is not two
    nonnegative integers (as ``int`` reads them) raises ParseError.
    """
    for lineno, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if _skipped(line):
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
        yield u, v


def _tokenize(text: str) -> np.ndarray | None:
    """The int64 labels of a text of lines, upper then lower for each edge
    line in line order, when every line is blank or two nonnegative labels
    below 2**63 in plain ASCII digits (``_array_labels``); None otherwise."""
    return _read_chunk(text)[0]


def _read_chunk(chunk: str) -> tuple[np.ndarray | None, int]:
    """``_tokenize`` of a chunk, and the line ends it holds, counted in the
    bytes that are parsed: the work of one worker of
    ``read_label_batches``."""
    data = chunk.encode("utf-8")
    newline = np.frombuffer(data, dtype=np.uint8) == ord("\n")
    return _array_labels(data, newline), int(np.count_nonzero(newline))


def _array_labels(data: bytes, newline: np.ndarray) -> np.ndarray | None:
    """The labels of the UTF-8 text ``data`` (``newline`` where its bytes
    are ``\\n``) as numpy's ``fromstring`` reads them, or None unless each of
    them reads as ``int`` reads it: every byte is an ASCII digit, a blank
    (space, tab, ``\\x0b`` or ``\\x0c``) or ``\\n``, every line holds two
    runs of digits or none, and no label reaches 2**63."""
    # fromstring would also read signs and "\r", and it reads a line end
    # as a blank: only digits, blanks and "\n" pass, and the lines are
    # checked one by one for their two labels.
    codes = np.frombuffer(data, dtype=np.uint8)
    digit = (codes - np.uint8(ord("0"))) < 10
    # Spaces, and the bytes from tab to "\x0c", "\n" among them.
    spacing = np.count_nonzero(codes == ord(" ")) + np.count_nonzero((codes - np.uint8(9)) < 4)
    if np.count_nonzero(digit) + spacing != len(codes):
        return None
    starts = np.empty_like(digit)
    starts[:1] = digit[:1]
    np.greater(digit[1:], digit[:-1], out=starts[1:])
    # The runs each line holds: the run starts between its line ends.
    events = np.flatnonzero(starts | newline)
    per_line = np.diff(np.flatnonzero(newline[events]), prepend=-1, append=len(events)) - 1
    if ((per_line != 0) & (per_line != 2)).any():
        return None
    count = np.count_nonzero(starts)
    if not count:
        # fromstring reads a text of blanks alone as [0].
        return np.zeros(0, dtype=np.int64)
    labels = np.fromstring(data, dtype=np.int64, sep=" ")
    if len(labels) != count:
        return None
    # fromstring reads a label of 2**63 or more as 2**63 - 1.
    limit = np.iinfo(np.int64).max
    if labels.max() == limit and max(map(int, data.split())) > limit:
        return None
    return labels


def _label_array(pairs: list[tuple[int, int]]) -> np.ndarray:
    """``pairs`` flattened: int64, or Python ints when a label needs more."""
    try:
        return np.array(pairs, dtype=np.int64).reshape(-1)
    except OverflowError:
        return np.array(pairs, dtype=object).reshape(-1)


def text_chunks(handle: TextIO, chunk_chars: int):
    """The text of a file opened in text mode, in chunks of whole lines:
    ``chunk_chars`` characters, then the rest of the line they end in.
    A line longer than a chunk is one chunk, or the end of one."""
    while chunk := handle.read(chunk_chars):
        if not chunk.endswith("\n"):
            chunk += handle.readline()
        yield chunk


def _cpu_limit() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _read_ahead(chunks: Iterable[str], max_workers: int | None = None):
    """``(chunk, _read_chunk(chunk))`` of each of ``chunks``, in order.

    The chunks are read on a thread pool that lives for one pass, one
    worker for each of ``_cpu_limit()``, but no more than ``max_workers``
    if given: it holds at most workers + 1 chunks in flight, read but not
    yet handed on.  With one worker or one chunk, every chunk is read in
    the calling thread, which starts none.
    """
    chunks = iter(chunks)
    head = list(islice(chunks, 2))
    workers = _cpu_limit() if len(head) > 1 else 1
    if max_workers is not None:
        workers = min(workers, max_workers)
    if workers == 1:
        yield from ((chunk, _read_chunk(chunk)) for chunk in chain(head, chunks))
        return
    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for chunk in chain(head, chunks):
            pending.append((chunk, pool.submit(_read_chunk, chunk)))
            if len(pending) > workers:
                chunk, future = pending.popleft()
                yield chunk, future.result()
        while pending:
            chunk, future = pending.popleft()
            yield chunk, future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def read_label_batches(chunks: Iterable[str], max_workers: int | None = None):
    """Yield the (upper, lower) label arrays of the edge lines of each of
    ``chunks``, texts of whole lines ending in ``\\n`` (``text_chunks``),
    in their order.

    The chunks are parsed ahead on worker threads (``_read_ahead``): up
    to one per CPU the process may use, and no more than ``max_workers``
    if given, with at most workers + 1 chunks in flight, and none
    outlives the pass, even one left early.  A chunk of
    digits, blanks and line ends, each line two labels or none, is read by
    numpy's ``fromstring`` in one pass over its bytes (``_tokenize``).  A
    chunk it declines is read in the calling thread: split into lines at
    ``\\n``, as iterating the file splits it, and read by ``_tokenize``
    again without its blank and comment lines, if it has any.  Any other
    chunk goes through ``read_edges``, which reads every form ``int``
    accepts, labels of any size (an object array of Python ints), and
    raises ParseError with the line number, counted across chunks.
    """
    first_line = 1
    with closing(_read_ahead(chunks, max_workers)) as parsed:
        for chunk, (labels, line_ends) in parsed:
            if labels is None:
                lines = list(io.StringIO(chunk, newline="\n"))
                kept = [line for line in lines if not _skipped(line.strip())]
                if len(kept) < len(lines):
                    labels = _tokenize("".join(kept))
                if labels is None:
                    labels = _label_array(list(read_edges(lines, first_line)))
            # Only the last chunk may end without a line end: the line ends
            # of the others number the lines of the next.
            first_line += line_ends
            yield labels[0::2], labels[1::2]


def _packs(bound: int, count: int) -> bool:
    """Whether ``count`` keys below ``bound`` pack beside their indices:
    ``bound << b`` fits 64 bits, b the bit length of ``count``."""
    return bound << count.bit_length() <= 1 << 64


def _sort_order(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted keys, order)`` of nonnegative integer ``keys``, all below
    ``bound``: one uint64 sort of ``key << b | index`` (b the bit length of
    ``len(keys)``) when they pack (``_packs``), which leaves ties in input
    order, otherwise an argsort, which leaves them in any order."""
    if not _packs(bound, len(keys)):
        order = np.argsort(keys)
        return keys[order], order
    b = len(keys).bit_length()
    packed = keys.astype(np.uint64)
    packed <<= np.uint64(b)
    packed |= np.arange(len(keys), dtype=np.uint64)
    packed.sort()
    order = (packed & np.uint64((1 << b) - 1)).view(np.int64)
    packed >>= np.uint64(b)
    return packed.view(np.int64), order


def _first_occurrences(values: np.ndarray):
    """``(sorted values, order, new, first)``: ``values`` sorted by
    ``order``, whether each sorted value starts a run of equal values, and
    the index where each run's value first occurs in ``values``.

    Both sorts leave ties in input order, so a run's first index is its
    head: integers that pack (``_packs``) go through ``_sort_order``'s
    packed sort, and integers too wide to pack and object arrays (Python
    ints, which may reach 2**63) through a stable argsort."""
    bound = None if values.dtype == object else int(values.max(initial=0)) + 1
    if bound is not None and _packs(bound, len(values)):
        sorted_values, order = _sort_order(values, bound)
    else:
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
    new = np.ones(len(values), dtype=bool)
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=new[1:])
    return sorted_values, order, new, order[new]


def _unique_first(values: np.ndarray):
    """``np.unique(values, return_index=True, return_inverse=True)``: the
    distinct values, where each first occurs and the inverse."""
    sorted_values, order, new, first = _first_occurrences(values)
    inverse = np.empty(len(values), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return sorted_values[new], first, inverse


class LabelIndex:
    """Dense indices for nonnegative labels, numbered in first-seen order
    across batches.

    While the labels are dense, the index is a direct-address table:
    entry ``label`` holds the label's index + 1, 0 for a label not seen.
    A batch is numbered by one gather, and its new labels take the next
    indices in first-seen order: ``np.minimum.at`` writes each new label's
    first position into its entry, and the new labels found at their first
    positions are numbered in batch order, with no sort.

    Memory rule: after every batch the table holds at most
    ``TABLE_ENTRIES_PER_LABEL`` entries (8 bytes each) per label numbered,
    and within a batch at most that many per label numbered plus label in
    the batch, so the index stays proportional to the vertex count.  A
    table that grows at least doubles, within that bound, so labels that
    rise from batch to batch do not copy it every time.

    The table serves int64 batches.  A batch whose largest label would
    break the memory rule (sparse IDs, labels of 2**62), or that holds
    Python ints (labels of 2**63 or more), converts the index to sorted
    runs, each beside the index of every label in it.  Small batches of
    scattered labels fall back early: at 4 KiB blocks ``em_count`` numbers
    chunks of about a thousand lines, and a first chunk that holds a
    thousand of 20,000 labels already breaks the rule.  So int64 runs
    return to a table once their largest label meets the rule again,
    checked at most once each time the labels numbered have doubled since
    the runs were made or last checked: an index converts O(log n) times.
    A batch is numbered in the runs by binary search, and its new labels
    are a new run.  A run is merged into the one before it (``np.insert``)
    until each run is at least eight times as long as the next, so there
    are O(log n) runs, and the longest is copied only once the others add
    up to an eighth of it: small batches do not copy the whole index each.
    The run labels are int64 until a batch holds labels of 2**63 or more
    (an object array of Python ints); from then on they are Python ints,
    and stay in runs.
    """

    def __init__(self):
        self._table: np.ndarray | None = np.zeros(0, dtype=np.int64)
        self._runs: list[tuple[np.ndarray, np.ndarray]] = []
        self._count = 0
        # The count from which int64 runs next check for a table.
        self._recheck = 0

    def __len__(self) -> int:
        return self._count

    def number(self, labels: np.ndarray) -> np.ndarray:
        """The dense index of each of ``labels``; labels not seen before
        get the next indices, in the order they first occur."""
        if self._table is not None:
            indices = self._number_in_table(labels)
            if indices is not None:
                return indices
            self._runs = [self._table_run()] if self._count else []
            self._table = None
            self._recheck = 2 * self._count
        distinct, first, inverse = _unique_first(labels)
        if distinct.dtype == object:
            self._runs = [(run.astype(object, copy=False), indices)
                          for run, indices in self._runs]
        indices = np.empty(len(distinct), dtype=np.int64)
        new = np.arange(len(distinct))
        for run, run_indices in self._runs:
            at = np.minimum(np.searchsorted(run, distinct[new]), len(run) - 1)
            found = run[at] == distinct[new]
            indices[new[found]] = run_indices[at[found]]
            new = new[~found]
        indices[new[np.argsort(first[new])]] = np.arange(self._count, self._count + len(new))
        self._count += len(new)
        if len(new):
            self._runs.append((distinct[new], indices[new]))
        while len(self._runs) > 1 and len(self._runs[-2][0]) < 8 * len(self._runs[-1][0]):
            (before, before_indices), (run, run_indices) = self._runs[-2:]
            at = np.searchsorted(before, run)
            self._runs[-2:] = [(np.insert(before, at, run),
                                np.insert(before_indices, at, run_indices))]
        if self._count >= self._recheck and self._runs and self._runs[0][0].dtype != object:
            self._recheck = 2 * self._count
            self._runs_to_table()
        return indices[inverse]

    def _number_in_table(self, labels: np.ndarray) -> np.ndarray | None:
        """``number`` through the table, or None, the table unchanged, for
        a batch it does not serve (see the memory rule)."""
        if labels.dtype != np.int64:
            return None
        table, count = self._table, self._count
        top = int(labels.max(initial=-1)) + 1
        if top > len(table):
            if top > TABLE_ENTRIES_PER_LABEL * (count + len(labels)):
                return None
            grown = np.zeros(max(top, min(2 * len(table), TABLE_ENTRIES_PER_LABEL * count)),
                             dtype=np.int64)
            grown[:len(table)] = table
            table = grown
        found = table[labels]
        at = np.flatnonzero(found == 0)
        fresh = labels[at]
        # Each new label's entry takes its first position, as a negative
        # number, so the new labels read it back at their first positions
        # only, in batch order.
        first = at - len(labels)
        np.minimum.at(table, fresh, first)
        firsts = fresh[table[fresh] == first]
        table[firsts] = np.arange(count + 1, count + 1 + len(firsts))
        found[at] = table[fresh]
        count += len(firsts)
        # Only a grown table, a copy, can break the rule here.
        if len(table) > TABLE_ENTRIES_PER_LABEL * count:
            return None
        self._table, self._count = table, count
        found -= 1
        return found

    def _runs_to_table(self) -> None:
        """Number through a table again if the runs' largest label keeps
        the memory rule."""
        top = max(int(run[-1]) for run, _ in self._runs) + 1
        if top <= TABLE_ENTRIES_PER_LABEL * self._count:
            self._table = np.zeros(top, dtype=np.int64)
            for run, indices in self._runs:
                self._table[run] = indices + 1
            self._runs = []

    def _table_run(self) -> tuple[np.ndarray, np.ndarray]:
        """The table's labels, sorted, beside their indices: one run."""
        labels = np.flatnonzero(self._table)
        return labels, self._table[labels] - 1

    def labels(self) -> list[int]:
        """The labels as Python ints, in index order."""
        if not self._count:
            return []
        runs = self._runs if self._table is None else [self._table_run()]
        labels = np.concatenate([run for run, _ in runs])
        ordered = np.empty_like(labels)
        ordered[np.concatenate([indices for _, indices in runs])] = labels
        return ordered.tolist()


def parse_edge_list(source: TextIO | str) -> BipartiteGraph:
    """Parse an edge-list stream into a graph.

    Format: one edge per line, two whitespace-separated nonnegative integer
    labels, first column upper-layer and second column lower-layer (the two
    columns are independent namespaces).  Lines starting with '%' or '#'
    and blank lines are ignored.  Labels are remapped to dense internal IDs
    in first-seen order; duplicate edges are dropped and counted on the
    returned graph's `duplicates_dropped`.  An empty stream yields the
    empty graph.  ``source`` is a text stream whose lines end in ``\\n``
    (a file opened in text mode), read in chunks of ``CHUNK_CHARS``
    characters of whole lines, or a string, read as the file of that text
    is: its lines end at ``\\n``, ``\\r\\n`` or ``\\r``.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    return _graph(read_label_batches(text_chunks(source, CHUNK_CHARS)))


def load_edge_list(path) -> BipartiteGraph:
    """``parse_edge_list`` of the UTF-8 file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle)


def _numbered(label_batches, upper_ids: LabelIndex, lower_ids: LabelIndex):
    """Yield the (upper, lower) index arrays of each of the (upper, lower)
    label arrays ``label_batches`` yields, numbered by ``upper_ids`` and
    ``lower_ids`` as each batch is handed on: the calling thread numbers a
    chunk while the reader's workers parse the chunks after it, and no
    batch's label arrays are kept once it is numbered."""
    with closing(label_batches) as batches:
        for upper, lower in batches:
            indices = upper_ids.number(upper), lower_ids.number(lower)
            del upper, lower
            yield indices


def _graph(label_batches) -> BipartiteGraph:
    """The graph of the edges whose (upper, lower) label arrays
    ``label_batches`` yields, labels numbered in first-seen order batch by
    batch (``_numbered``): the index arrays of all batches are joined,
    then the duplicate edges dropped."""
    upper_ids, lower_ids = LabelIndex(), LabelIndex()
    uppers = [np.zeros(0, dtype=np.int64)]
    lowers = [np.zeros(0, dtype=np.int64)]
    for upper, lower in _numbered(label_batches, upper_ids, lower_ids):
        uppers.append(upper)
        lowers.append(lower)
    return BipartiteGraph.from_indices(np.concatenate(uppers), np.concatenate(lowers),
                                       len(upper_ids), len(lower_ids),
                                       lower_ids.labels() + upper_ids.labels())


def degree_priorities(degrees: np.ndarray) -> np.ndarray:
    """The degree-major, ID-minor priorities of vertices 0..n-1 with the
    given int64 degrees: an int64 permutation of 1..n.  A vertex outranks
    another iff its degree is larger, or the degrees tie and its ID is
    larger (a stable sort by degree), so upper vertices win ties across
    layers.  Every engine takes priorities in this form."""
    order = np.argsort(degrees, kind="stable")
    priority = np.empty(len(order), dtype=np.int64)
    priority[order] = np.arange(1, len(order) + 1)
    return priority


def assign_priorities(g: BipartiteGraph) -> np.ndarray:
    """``degree_priorities`` of ``g``'s vertex degrees."""
    return degree_priorities(g.degrees)

