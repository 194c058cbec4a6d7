"""Out-of-core butterfly counting under a configurable memory budget.

Pipeline, entirely over fixed-width binary records of two little-endian
64-bit unsigned integers (byte-lexicographic sort order):

1. stream the text edge list once, assigning dense per-layer IDs and
   writing both directions of every edge as (center, neighbor) records;
2. external-sort the records so each vertex's neighbors are contiguous;
3. stream the groups to get degrees, then rank all vertices in memory
   (the vertex count must fit in the budget; the edge count need not);
4. stream the groups again, emitting a (start, end) pair for every wedge
   whose end outranks both the middle and the start;
5. external-sort the pairs and fold equal runs: a run of length c adds
   C(c, 2) butterflies.

I/O accounting counts the logical block transfers performed by this
module's buffered readers and writers, so the numbers are deterministic;
reading the text input is not metered.
"""

from __future__ import annotations

import heapq
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass
from itertools import islice
from time import perf_counter

from .errors import ConfigError, CountOverflowError
from .exact import COUNT_LIMIT, CountReport
from .graph import degree_priorities, read_edges

RECORD = struct.Struct("<QQ")
RECORD_WIDTH = RECORD.size
MIN_BLOCK = 4096


@dataclass
class EmConfig:
    """Memory budget M and block size B for the external pipeline."""

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
        return max(1, self.memory_budget // RECORD_WIDTH)


@dataclass
class IoStats:
    blocks_read: int = 0
    blocks_written: int = 0
    pairs_emitted: int = 0
    merge_passes: int = 0


class BlockWriter:
    """Buffered record writer; one transfer per block-size chunk flushed.

    Use it as a context manager: the file is closed even when a write
    fails (a full disk), and the buffered tail is flushed only on success.
    """

    def __init__(self, path, block_size: int, stats: IoStats):
        self._file = open(path, "wb")
        self._buffer = bytearray()
        self._block = block_size
        self._stats = stats

    def write(self, record: bytes) -> None:
        buf = self._buffer
        buf += record
        if len(buf) >= self._block:
            block = self._block
            self._file.write(buf[:block])
            del buf[:block]
            self._stats.blocks_written += 1

    def close(self) -> None:
        try:
            if self._buffer:
                self._file.write(self._buffer)
                self._stats.blocks_written += 1
                self._buffer.clear()
        finally:
            self._file.close()

    def __enter__(self) -> "BlockWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._file.close()


def iter_records(path, block_size: int, stats: IoStats):
    """Stream 16-byte records, metering one read per block-size chunk.
    Records may straddle chunk boundaries when B is not a multiple of 16."""
    rest = b""
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(block_size)
            if not chunk:
                break
            stats.blocks_read += 1
            data = rest + chunk
            end = len(data) - len(data) % RECORD_WIDTH
            for offset in range(0, end, RECORD_WIDTH):
                yield data[offset:offset + RECORD_WIDTH]
            rest = data[end:]
    if rest:
        raise ConfigError(f"record file {path} truncated mid-record")


def external_sort(in_path, out_path, cfg: EmConfig, *, suffix: str = "run",
                  scratch_dir=None, stats: IoStats | None = None) -> IoStats:
    """Sort a fixed-width record file byte-lexicographically.

    Run formation fills at most the memory budget with records; merging
    folds floor(M/B) - 1 runs at a time, one ``merge_passes`` increment
    per sweep over the current runs.  A file that fits in memory sorts in
    zero merge passes.
    """
    stats = stats if stats is not None else IoStats()
    own_scratch = scratch_dir is None
    if own_scratch:
        scratch_dir = tempfile.mkdtemp(prefix="extsort-")
    try:
        source = iter_records(in_path, cfg.block_size, stats)
        runs = []
        while True:
            chunk = list(islice(source, cfg.run_records))
            if not chunk:
                break
            chunk.sort()
            run_path = os.path.join(scratch_dir, f"{len(runs)}.{suffix}")
            with BlockWriter(run_path, cfg.block_size, stats) as writer:
                for record in chunk:
                    writer.write(record)
            runs.append(run_path)

        if not runs:
            open(out_path, "wb").close()
            return stats
        width = cfg.merge_width
        generation = 0
        while len(runs) > 1:
            stats.merge_passes += 1
            generation += 1
            next_runs = []
            for start in range(0, len(runs), width):
                group = runs[start:start + width]
                if len(group) == 1:
                    next_runs.append(group[0])
                    continue
                final = len(runs) <= width
                merged = out_path if final else os.path.join(
                    scratch_dir, f"m{generation}-{len(next_runs)}.{suffix}")
                streams = [iter_records(path, cfg.block_size, stats) for path in group]
                with BlockWriter(merged, cfg.block_size, stats) as writer:
                    for record in heapq.merge(*streams):
                        writer.write(record)
                if not cfg.keep_scratch:
                    for path in group:
                        os.remove(path)
                next_runs.append(merged)
            runs = next_runs
        if runs[0] != out_path:
            os.replace(runs[0], out_path)
        return stats
    finally:
        if own_scratch:
            shutil.rmtree(scratch_dir, ignore_errors=True)


def _final_id(key: int, lower_count: int) -> int:
    # Keys tag the layer in the low bit so dense IDs can be assigned
    # before the lower-layer size is known.
    return lower_count + (key >> 1) if key & 1 else key >> 1


def _iter_groups(path, cfg: EmConfig, stats: IoStats):
    """Yield (center_key, [neighbor_key...]) from a sorted record file,
    dropping duplicate records (duplicate input edges)."""
    center = None
    neighbors: list[int] = []
    previous = None
    for record in iter_records(path, cfg.block_size, stats):
        if record == previous:
            continue
        previous = record
        c, w = RECORD.unpack(record)
        if c != center:
            if center is not None:
                yield center, neighbors
            center = c
            neighbors = []
        neighbors.append(w)
    if center is not None:
        yield center, neighbors


def em_count(edge_path, cfg: EmConfig) -> tuple[CountReport, IoStats]:
    """Count butterflies in an edge-list file without holding edges in
    memory; exact, and emits exactly the end-dominant wedge set as pairs.

    In the report, ``start_accesses`` is the number of vertices scanned as
    wedge middles and ``middle_accesses`` the number of adjacency records
    streamed in the emission pass.
    """
    t0 = perf_counter()
    stats = IoStats()
    scratch = tempfile.mkdtemp(prefix="emcount-", dir=cfg.scratch_dir)
    try:
        raw_path = os.path.join(scratch, "adjacency.raw")
        sorted_path = os.path.join(scratch, "adjacency.sorted")
        pairs_raw = os.path.join(scratch, "pairs.raw")
        pairs_sorted = os.path.join(scratch, "pairs.sorted")

        # The rank table (8 bytes a vertex) must fit the budget; the label
        # dicts are checked as they grow, before the file is read through.
        upper_ids: dict[int, int] = {}
        lower_ids: dict[int, int] = {}
        max_vertices = cfg.memory_budget // 8
        pack = RECORD.pack
        with open(edge_path, "r", encoding="utf-8") as handle, \
                BlockWriter(raw_path, cfg.block_size, stats) as writer:
            for ui, vi in read_edges(handle, upper_ids, lower_ids):
                if len(upper_ids) + len(lower_ids) > max_vertices:
                    raise ConfigError(
                        f"more than {max_vertices} vertices: their rank table "
                        f"needs over the {cfg.memory_budget}-byte budget; "
                        f"raise the budget")
                ukey = (ui << 1) | 1
                vkey = vi << 1
                writer.write(pack(vkey, ukey))
                writer.write(pack(ukey, vkey))
        lower_count = len(lower_ids)
        n = lower_count + len(upper_ids)
        upper_ids.clear()
        lower_ids.clear()

        external_sort(raw_path, sorted_path, cfg, suffix="edges",
                      scratch_dir=scratch, stats=stats)
        if not cfg.keep_scratch:
            os.remove(raw_path)

        degrees = [0] * n
        for center, neighbors in _iter_groups(sorted_path, cfg, stats):
            degrees[_final_id(center, lower_count)] = len(neighbors)

        priority = degree_priorities(degrees).tolist()

        pairs_emitted = 0
        groups = 0
        records_scanned = 0
        with BlockWriter(pairs_raw, cfg.block_size, stats) as writer:
            for center, neighbors in _iter_groups(sorted_path, cfg, stats):
                groups += 1
                records_scanned += len(neighbors)
                pv = priority[_final_id(center, lower_count)]
                members = sorted((priority[_final_id(k, lower_count)], k)
                                 for k in neighbors)
                for i in range(len(members) - 1, -1, -1):
                    pw, wkey = members[i]
                    if pw <= pv:
                        break
                    w_final = _final_id(wkey, lower_count)
                    for pu, ukey in members:
                        if pu >= pw:
                            break
                        writer.write(pack(_final_id(ukey, lower_count), w_final))
                        pairs_emitted += 1
        stats.pairs_emitted = pairs_emitted
        if not cfg.keep_scratch:
            os.remove(sorted_path)

        external_sort(pairs_raw, pairs_sorted, cfg, suffix="pairs",
                      scratch_dir=scratch, stats=stats)
        if not cfg.keep_scratch:
            os.remove(pairs_raw)

        butterflies = 0
        run_length = 0
        previous = None
        for record in iter_records(pairs_sorted, cfg.block_size, stats):
            if record == previous:
                run_length += 1
            else:
                if run_length > 1:
                    butterflies += run_length * (run_length - 1) // 2
                previous = record
                run_length = 1
        if run_length > 1:
            butterflies += run_length * (run_length - 1) // 2
        if butterflies >= COUNT_LIMIT:
            raise CountOverflowError("butterfly count exceeded 128 bits")

        report = CountReport(butterflies, pairs_emitted, groups,
                             records_scanned, pairs_emitted,
                             perf_counter() - t0)
        return report, stats
    finally:
        if not cfg.keep_scratch:
            shutil.rmtree(scratch, ignore_errors=True)
