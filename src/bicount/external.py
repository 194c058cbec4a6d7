"""Out-of-core butterfly counting under a configurable memory budget.

Pipeline, entirely over 8-byte records, each the key
``first << 32 | second`` of two fields below 2**32:

1. stream the text edge list once, assigning dense per-layer IDs and
   writing both directions of every edge as (center, neighbor) records;
2. external-sort the records so each vertex's neighbors are contiguous;
3. stream the groups to get degrees, then rank all vertices in memory
   (the vertex count must fit in the budget; the edge count need not);
4. stream the groups again, ordering each block's groups by rank with one
   integer sort, and emit a (start rank, end rank) pair for every wedge
   whose end outranks both the middle and the start, straight into sorted
   runs (``_write_runs``);
5. merge the runs (``_merged``) and fold equal pairs as the last merge
   streams them: a run of c >= 2 equal pairs adds C(c, 2) butterflies,
   and only such runs are folded.  The pairs never pass through a file of
   their own, sorted or unsorted.

The passes over a sorted stream read it as whole runs (``_whole_runs``):
every array they get holds complete groups, or complete runs of equal
pairs, so no pass keeps state from one array to the next.

Records move as numpy arrays of native uint64 keys, so run formation and
every merge step are one integer sort, and (first, second) ascending is
key order.  On disk a key is stored big-endian, so byte order is numeric
order and every sorted file is sorted bytewise.  The fields are the
engine's dense, layer-tagged vertex IDs in adjacency records and vertex
ranks in pair records, which fit 32 bits below ``ID_LIMIT`` vertices.
I/O follows the scan model of Aggarwal and Vitter: a pass over S bytes
costs ceil(S / B) transfers; reading the text input is not metered.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import graph, kernel
from .errors import ConfigError
from .exact import CountReport, check_limit
from .graph import LabelIndex, degree_priorities, read_label_batches, text_chunks

RECORD_WIDTH = 8
BIG_ENDIAN = np.dtype(">u8")
# Vertices EM can number: a layer-tagged ID (2i or 2i + 1) and a final ID
# both stay below 2**32, the width of a record's field.
ID_LIMIT = 1 << 31
MIN_BLOCK = 4096


@dataclass
class EmConfig:
    """Memory budget M and block size B for the external pipeline, and
    where its scratch directories go: under ``scratch_dir`` (the system's
    temporary directory when None), removed afterwards unless ``keep_scratch``."""

    memory_budget: int
    block_size: int = 64 * 1024
    scratch_dir: str | None = None
    keep_scratch: bool = False

    def __post_init__(self):
        if self.block_size < MIN_BLOCK:
            raise ConfigError(f"block size must be >= {MIN_BLOCK} bytes")
        if self.memory_budget < 4 * self.block_size:
            raise ConfigError("memory budget must be at least 4 blocks")

    @property
    def merge_width(self) -> int:
        """Input streams per merge step: one block buffer each plus one
        for the output stays within the budget.  Capped so a very large
        budget cannot exhaust file descriptors."""
        return min(self.memory_budget // self.block_size - 1, 512)

    @property
    def run_records(self) -> int:
        return self.memory_budget // RECORD_WIDTH


@dataclass
class IoStats:
    blocks_read: int = 0
    blocks_written: int = 0
    pairs_emitted: int = 0
    merge_passes: int = 0


def _records(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The keys of the records ``(first, second)``, fields below 2**32."""
    return first.astype(np.uint64) << 32 | second.astype(np.uint64)


@contextmanager
def _writer(path, block_size: int, stats: IoStats):
    """Yield a ``write(records)`` into ``path`` opened for writing, which
    stores each key big-endian by swapping the array's bytes in place, so
    the caller gives the array up; meter one transfer per block written
    once the body is done.  A failed write still closes the file (a full
    disk), and meters nothing."""
    def write(records: np.ndarray) -> None:
        if records.dtype != BIG_ENDIAN:  # native keys on a little-endian host
            records = records.byteswap(inplace=True).view(BIG_ENDIAN)
        handle.write(records)

    with open(path, "wb") as handle:
        yield write
        stats.blocks_written += -(-handle.tell() // block_size)


def iter_records(path, block_size: int, stats: IoStats):
    """Stream a record file as arrays of a block's worth of records (the
    last may be shorter), metering one pass over it.  No array is asked
    for beyond the file's records: numpy sizes its buffer from the count."""
    size = os.path.getsize(path)
    if size % RECORD_WIDTH:
        raise ConfigError(f"record file {path} truncated mid-record")
    stats.blocks_read += -(-size // block_size)
    count = min(block_size // RECORD_WIDTH, max(1, size // RECORD_WIDTH))
    with open(path, "rb") as handle:
        while len(records := np.fromfile(handle, dtype=">u8", count=count)):
            # Swapping the bytes and the dtype's byte order keeps the values
            # and, on a little-endian host, gives native uint64 in place.
            yield records.byteswap(inplace=True).view(records.dtype.newbyteorder())


def _merge(paths, cfg: EmConfig, stats: IoStats):
    """Yield the records of sorted run files in order, a block at a time:
    every buffered record up to the smallest buffered tail is final.  The
    run files are closed when the merge ends, whether it finishes, fails
    or is closed."""
    with ExitStack() as stack:
        streams = [stack.enter_context(closing(iter_records(path, cfg.block_size, stats)))
                   for path in paths]
        buffers = {stream: next(stream) for stream in streams}
        while buffers:
            bound = min(b[-1] for b in buffers.values())
            taken = []
            for stream, buffer in list(buffers.items()):
                cut = int(buffer.searchsorted(bound, side="right"))
                taken.append(buffer[:cut])
                buffers[stream] = buffer[cut:] if cut < len(buffer) else next(stream, None)
            buffers = {s: b for s, b in buffers.items() if b is not None}
            yield np.sort(np.concatenate(taken))


def _write_runs(arrays, capacity: int, cfg: EmConfig, stats: IoStats,
                scratch_dir, suffix: str) -> list[str]:
    """Write the records of ``arrays`` as sorted run files of ``capacity``
    records each (the last may be shorter): one buffer is filled, sorted
    in place and written out from itself, again and again.  Returns the
    run paths."""
    buffer = np.empty(capacity, dtype=np.uint64)
    runs: list[str] = []

    def flush(filled: int) -> None:
        run = buffer[:filled]
        run.sort()
        runs.append(os.path.join(scratch_dir, f"{len(runs)}.{suffix}"))
        with _writer(runs[-1], cfg.block_size, stats) as write:
            write(run)

    filled = 0
    for records in arrays:
        while len(records):
            take = min(capacity - filled, len(records))
            buffer[filled:filled + take] = records[:take]
            records = records[take:]
            filled += take
            if filled == capacity:
                flush(filled)
                filled = 0
    if filled:
        flush(filled)
    return runs


def _merged(runs: list[str], cfg: EmConfig, stats: IoStats, scratch_dir, suffix: str):
    """Yield the records of sorted run files in order, as arrays.  While
    more than ``merge_width`` runs remain, a sweep merges them
    ``merge_width`` at a time into new run files; the last sweep is
    yielded, not written.  Each sweep, the last included, is one
    ``merge_passes`` increment, so one run yields in zero passes."""
    width = cfg.merge_width
    generation = 0
    while len(runs) > width:
        stats.merge_passes += 1
        generation += 1
        next_runs = []
        for start in range(0, len(runs), width):
            group = runs[start:start + width]
            if len(group) == 1:
                next_runs.append(group[0])
                continue
            next_runs.append(os.path.join(
                scratch_dir, f"m{generation}-{len(next_runs)}.{suffix}"))
            with _writer(next_runs[-1], cfg.block_size, stats) as write:
                for records in _merge(group, cfg, stats):
                    write(records)
            _discard(group, cfg)
        runs = next_runs
    if len(runs) > 1:
        stats.merge_passes += 1
    yield from _merge(runs, cfg, stats)
    _discard(runs, cfg)


def _discard(paths, cfg: EmConfig) -> None:
    if not cfg.keep_scratch:
        for path in paths:
            os.remove(path)


@contextmanager
def _scratch(cfg: EmConfig, prefix: str):
    """Yield a new scratch directory ``prefix*``, as ``cfg`` places it."""
    path = tempfile.mkdtemp(prefix=prefix, dir=cfg.scratch_dir)
    try:
        yield path
    finally:
        if not cfg.keep_scratch:
            shutil.rmtree(path, ignore_errors=True)


def _sort(in_path, out_path, cfg: EmConfig, stats: IoStats, scratch_dir, suffix: str):
    """``external_sort`` through run files ``*.{suffix}`` in ``scratch_dir``."""
    # No buffer beyond the file's records: the budget may be far larger.
    capacity = max(1, min(cfg.run_records, os.path.getsize(in_path) // RECORD_WIDTH))
    with closing(iter_records(in_path, cfg.block_size, stats)) as blocks:
        runs = _write_runs(blocks, capacity, cfg, stats, scratch_dir, suffix)
    if len(runs) == 1:
        # A rename, or a copy where the scratch dir is on another filesystem.
        shutil.move(runs[0], out_path)
        return stats
    with _writer(out_path, cfg.block_size, stats) as write, \
            closing(_merged(runs, cfg, stats, scratch_dir, suffix)) as merged:
        for records in merged:
            write(records)
    return stats


def external_sort(in_path, out_path, cfg: EmConfig) -> IoStats:
    """Sort a file of 8-byte big-endian keys, numerically and so bytewise.

    Run formation fills at most the memory budget with records; merging
    folds floor(M/B) - 1 runs at a time, one ``merge_passes`` increment
    per sweep over the current runs.  A file that fits in memory sorts in
    zero merge passes: its one run becomes the output.  The runs go to an
    ``extsort-*`` directory, as ``EmConfig`` places it.
    """
    with _scratch(cfg, "extsort-") as scratch:
        return _sort(in_path, out_path, cfg, IoStats(), scratch, "run")


def _final_ids(records: np.ndarray, lower_count: int) -> np.ndarray:
    # The first and the second fields of the records, as final IDs.  IDs tag
    # the layer in the low bit so dense IDs can be assigned before the
    # lower-layer size is known.
    ids = np.stack((records >> 32, records & 0xFFFF_FFFF)).astype(np.int64)
    return (ids >> 1) + (ids & 1) * lower_count


def _whole_runs(blocks, key):
    """Regroup sorted ``blocks`` so that no run of rows with equal
    ``key(block)`` spans two arrays.  Each block is cut at the start of its
    last run, which is held until a later block starts another; so at most
    one block plus one run is held."""
    held: list[np.ndarray] = []
    for block in blocks:
        keys = key(block)
        cut = int(keys.searchsorted(keys[-1]))
        # A block of one run goes on with the held run, or starts another.
        if cut or (held and key(held[-1][-1:])[0] != keys[0]):
            yield np.concatenate(held + [block[:cut]])
            held = []
        held.append(block[cut:])
    if held:
        yield np.concatenate(held)


def _iter_groups(path, cfg: EmConfig, stats: IoStats, lower_count: int):
    """Yield ``(centers, starts, sizes, neighbors)`` of a sorted record
    file's groups (final IDs; a start is a record index), a block's whole
    groups at a time, without duplicate records (duplicate input edges)."""
    with closing(iter_records(path, cfg.block_size, stats)) as blocks:
        for records in _whole_runs(blocks, lambda records: records >> 32):
            records = records[np.concatenate(([True], records[1:] != records[:-1]))]
            centers, neighbors = _final_ids(records, lower_count)
            starts = np.flatnonzero(np.diff(centers, prepend=-1))
            yield centers[starts], starts, np.diff(starts, append=len(centers)), neighbors


def _wedge_pairs(groups, rank: np.ndarray, stats: IoStats, capacity: int):
    """Yield, as arrays of (start, end) records in ranks, one pair for
    every wedge of ``groups`` whose end outranks both its middle (the
    group's center) and its start.  An array holds at most ``capacity``
    pairs, the records of a pair run, or the pairs of one member if more."""
    cap = min(kernel.CHUNK_WEDGES, capacity)
    for centers, starts, sizes, neighbors in groups:
        # One sort orders each group's members by rank: an end that
        # outranks the center pairs with every member before it.
        group = np.repeat(np.arange(len(centers)), sizes)
        keys = group << 32 | rank[neighbors]
        keys.sort()
        members = keys & 0xFFFF_FFFF
        firsts = np.repeat(starts, sizes)
        counts = np.where(members > rank[centers][group],
                          np.arange(len(members)) - firsts, 0)
        stats.pairs_emitted += int(counts.sum())
        # A pair is the key (earlier member) << 32 | member.
        members = members.astype(np.uint64)
        starts = members << 32
        for part in np.split(np.arange(len(counts)), kernel.chunk_bounds(counts, cap)):
            pairs = starts[kernel.ranges(firsts[part], counts[part])]
            pairs |= np.repeat(members[part], counts[part])
            yield pairs


def _read_workers(cfg: EmConfig, chunk_chars: int) -> int:
    """The most worker threads ``em_count``'s first pass parses on: the
    reader holds workers + 1 chunks of ``chunk_chars`` in flight, each
    charged ``graph.CHUNK_BYTES_PER_CHAR`` a character, and what the
    budget leaves after the writer's block holds as many as it can; at
    least one worker, which parses in the calling thread."""
    in_flight = ((cfg.memory_budget - cfg.block_size)
                 // (chunk_chars * graph.CHUNK_BYTES_PER_CHAR))
    return max(1, in_flight - 1)


def em_count(edge_path, cfg: EmConfig) -> tuple[CountReport, IoStats]:
    """Count butterflies in an edge-list file without holding edges in
    memory; exact, and emits exactly the end-dominant wedge set as pairs.

    In the report, ``start_accesses`` is the number of vertices scanned as
    wedge middles and ``middle_accesses`` the number of adjacency records
    streamed in the emission pass.

    The first pass parses the text ahead on as many worker threads as the
    budget holds chunks in flight (``_read_workers``), at least one.  The
    label indexes and the records of the chunk being written come on top
    of that share, so the pass is not held within the budget.

    Besides the rank table, a pass over a sorted stream holds at most one
    block plus one run: a group, as long as its vertex's degree, or a run
    of equal pairs, no longer than the smaller degree of its two ends.
    The emission pass forms the pair runs in one buffer of what the budget
    leaves after the rank table (8 bytes a vertex) and one block of
    groups, but at least a block's worth, and hands them over in arrays
    no larger than that buffer, unless one member's pairs alone are.
    """
    t0 = perf_counter()
    stats = IoStats()
    with _scratch(cfg, "emcount-") as scratch:
        raw_path = os.path.join(scratch, "adjacency.raw")
        sorted_path = os.path.join(scratch, "adjacency.sorted")

        # The rank table (8 bytes a vertex) must fit the budget; the label
        # indexes are checked batch by batch, before the file is read through.
        upper_ids, lower_ids = LabelIndex(), LabelIndex()
        max_vertices = min(cfg.memory_budget // 8, ID_LIMIT)
        # The text is read in chunks of two blocks' worth of characters, 2B
        # (at most CHUNK_CHARS), and the rest of the line (``text_chunks``):
        # at most B/2 + 1 edge lines ("1 2\n"), whose records take at most
        # eight blocks and 16 bytes.  The reader parses chunks ahead on
        # worker threads, as many as ``_read_workers`` lets the budget hold,
        # and the calling thread numbers each chunk in the label indexes as
        # it is handed on (``graph._numbered``), while the workers parse the
        # chunks after it.  On the 200k-edge benchmark files at B = 64 KiB
        # (2-core Xeon, 15 interleaved passes), chunks of one block and of
        # two were within noise on ``uniform`` (47-53 against 53-62 ms), and
        # one block was slower on ``skewed`` (101-111 against 62-71 ms): a
        # first chunk of one block holds 4,157 of the 20,000 labels its
        # largest label spans, too few for a table (``graph.LabelIndex``),
        # so both indexes numbered in sorted runs, which then never turned
        # back into tables.
        chunk = min(graph.CHUNK_CHARS, 2 * cfg.block_size)
        with open(edge_path, "r", encoding="utf-8") as handle, \
                _writer(raw_path, cfg.block_size, stats) as write, \
                closing(graph._numbered(
                    read_label_batches(text_chunks(handle, chunk), _read_workers(cfg, chunk)),
                    upper_ids, lower_ids)) as batches:
            for uppers, lowers in batches:
                # Both directions of every edge, as (center, neighbor) keys.
                uppers = uppers << 1 | 1
                lowers = lowers << 1
                if len(upper_ids) + len(lower_ids) > max_vertices:
                    raise ConfigError(f"more than {max_vertices} vertices: " + (
                        "records hold 32-bit vertex IDs" if max_vertices == ID_LIMIT
                        else f"their rank table needs over the "
                             f"{cfg.memory_budget}-byte budget; raise the budget"))
                write(_records(np.stack((lowers, uppers), axis=1).ravel(),
                               np.stack((uppers, lowers), axis=1).ravel()))
        lower_count = len(lower_ids)
        n = lower_count + len(upper_ids)
        del upper_ids, lower_ids

        _sort(raw_path, sorted_path, cfg, stats, scratch, "edges")
        _discard([raw_path], cfg)

        degrees = np.zeros(n, dtype=np.int64)
        for centers, _, sizes, _ in _iter_groups(sorted_path, cfg, stats, lower_count):
            degrees[centers] = sizes
        rank = degree_priorities(degrees) - 1
        groups, records_scanned = int(np.count_nonzero(degrees)), int(degrees.sum())

        # The pair runs share the budget with the rank table and the block of
        # groups being expanded, so the degrees go first, and the rank table
        # before the merge.  A vertex of degree d is the middle of at most
        # C(d, 2) pairs, which bounds the buffer when the budget is far larger.
        capacity = max(cfg.memory_budget - 8 * n - cfg.block_size,
                       cfg.block_size) // RECORD_WIDTH
        capacity = max(1, min(capacity, int((degrees * (degrees - 1) // 2).sum())))
        del degrees
        with closing(_iter_groups(sorted_path, cfg, stats, lower_count)) as blocks:
            runs = _write_runs(_wedge_pairs(blocks, rank, stats, capacity), capacity, cfg,
                               stats, scratch, "pairs")
        del rank
        _discard([sorted_path], cfg)

        # A run of c >= 2 equal pairs adds C(c, 2); runs of one add nothing.
        # The int64 dot, twice the sum, is exact while an array holds fewer
        # than 3 * 10**9 records.
        butterflies = 0
        with closing(_merged(runs, cfg, stats, scratch, "pairs")) as merged:
            for records in _whole_runs(merged, lambda records: records):
                lengths = kernel.repeated_runs(records)[1]
                butterflies += int(np.dot(lengths, lengths - 1)) // 2
        check_limit(butterflies, "butterfly count")

        report = CountReport(butterflies, stats.pairs_emitted, groups, records_scanned,
                             stats.pairs_emitted, perf_counter() - t0)
        return report, stats
