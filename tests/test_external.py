import dataclasses
import errno
import math
import os
import random
import statistics
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicount import external, graph, kernel
from bicount.errors import ConfigError
from bicount.exact import CountReport, count_vpp
from bicount.cli import main
from bicount.external import EmConfig, IoStats, em_count, external_sort, iter_records
from bicount.generate import complete_pairs, hub_pairs, pairs_to_text, random_pairs_m
from bicount.graph import LabelIndex, assign_priorities, load_edge_list, parse_edge_list
from helpers import (edge_list, files_left_open, mixed_label_text, random_graph_set,
                     reference_parse, timeless)
from test_kernel import graphs

PROBS = (0.05, 0.1, 0.25, 0.5)
MIN_CFG = EmConfig(memory_budget=4 * 4096, block_size=4096)


def write_graph(tmp_path, pairs, name="g.txt"):
    path = tmp_path / name
    path.write_text(pairs_to_text(pairs))
    return path


def graph_pairs(g):
    l = g.lower_count
    return [(u - l, v) for u, v in edge_list(g)]


def vpp_report(path):
    g = parse_edge_list(path.read_text())
    return count_vpp(g, assign_priorities(g))


class TestEmConfig:
    def test_block_size_floor(self):
        with pytest.raises(ConfigError):
            EmConfig(memory_budget=1 << 20, block_size=1024)

    def test_budget_must_hold_four_blocks(self):
        with pytest.raises(ConfigError):
            EmConfig(memory_budget=8192, block_size=4096)

    def test_merge_width(self):
        cfg = EmConfig(memory_budget=64 * 1024, block_size=16 * 1024)
        assert cfg.merge_width == 3


class TestExternalSort:
    def make_records(self, count, seed):
        rng = random.Random(seed)
        return [struct.pack(">Q", rng.randrange(1 << 64)) for _ in range(count)]

    def write_records(self, path, records):
        with open(path, "wb") as handle:
            handle.write(b"".join(records))

    def test_sorted_input_unchanged(self, tmp_path):
        records = sorted(self.make_records(500, 1))
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        self.write_records(src, records)
        external_sort(src, dst, MIN_CFG)
        assert dst.read_bytes() == src.read_bytes()

    def test_fits_in_memory_zero_merge_passes(self, tmp_path):
        records = self.make_records(100, 2)
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        self.write_records(src, records)
        stats = external_sort(src, dst, EmConfig(memory_budget=1 << 20))
        assert stats.merge_passes == 0
        assert dst.read_bytes() == b"".join(sorted(records))

    @pytest.mark.parametrize("runs", [2, 4, 9, 10])
    def test_merge_pass_count_formula(self, tmp_path, runs):
        cfg = EmConfig(memory_budget=64 * 1024, block_size=16 * 1024)
        assert cfg.merge_width == 3
        count = cfg.run_records * runs
        records = self.make_records(count, runs)
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        self.write_records(src, records)
        stats = external_sort(src, dst, cfg)
        assert stats.merge_passes == math.ceil(math.log(runs, cfg.merge_width))
        assert dst.read_bytes() == b"".join(sorted(records))

    def test_empty_input(self, tmp_path):
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        src.write_bytes(b"")
        stats = external_sort(src, dst, MIN_CFG)
        assert dst.read_bytes() == b""
        assert stats.merge_passes == 0

    def test_scratch_follows_the_config(self, tmp_path):
        # 10,000 records in runs of 2,048 under a merge width of 3: five
        # runs, two of them merged ahead of the last merge.
        records = self.make_records(10_000, 5)
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        self.write_records(src, records)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        cfg = EmConfig(16384, 4096, scratch_dir=str(scratch))
        assert external_sort(src, dst, cfg).merge_passes == 2
        assert list(scratch.iterdir()) == []
        external_sort(src, dst, dataclasses.replace(cfg, keep_scratch=True))
        [kept] = scratch.iterdir()
        assert kept.name.startswith("extsort-")
        assert {p.name for p in kept.iterdir()} == {
            "0.run", "1.run", "2.run", "3.run", "4.run", "m1-0.run", "m1-1.run"}
        assert dst.read_bytes() == b"".join(sorted(records))

    def test_one_run_moves_across_filesystems(self, tmp_path, monkeypatch):
        # A scratch dir on another filesystem than the output: no rename can
        # move the one run there, so it is copied, with the same stats.
        records = self.make_records(1000, 6)
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        self.write_records(src, records)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        cfg = EmConfig(memory_budget=1 << 20, scratch_dir=str(scratch))
        renamed = external_sort(src, dst, cfg)

        def cross_device(*args, **kwargs):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        dst.unlink()
        for name in ("rename", "replace"):
            monkeypatch.setattr(os, name, cross_device)
        assert external_sort(src, dst, cfg) == renamed
        assert renamed.merge_passes == 0
        assert dst.read_bytes() == b"".join(sorted(records))
        assert list(scratch.iterdir()) == []

    def test_truncated_record_rejected(self, tmp_path):
        src = tmp_path / "in.bin"
        src.write_bytes(b"\x00" * 20)
        with pytest.raises(ConfigError, match="truncated"):
            list(iter_records(src, 4096, IoStats()))


# Keys at the edges of the 32-bit fields and of the key, and small keys, so
# that keys repeat.
EDGE_KEYS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)
POOL = EDGE_KEYS + tuple(range(10))


class TestSortProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(POOL) | st.integers(0, 2 ** 64 - 1), max_size=40),
           st.integers(4, 6), st.integers(0, 2 ** 32))
    def test_external_sort_orders_bytewise(self, tmp_path_factory, drawn, runs, seed):
        # 4 to 6 runs under a merge width of 3 take 2 merge passes.  The
        # drawn keys and the pool land anywhere among seeded keys, half of
        # them from the pool.
        rng = random.Random(seed)
        keys = drawn + list(POOL)
        keys += [rng.choice(POOL) if rng.random() < 0.5 else rng.randrange(1 << 64)
                 for _ in range(runs * MIN_CFG.run_records - len(keys))]
        rng.shuffle(keys)
        packed = [struct.pack(">Q", key) for key in keys]
        src = tmp_path_factory.mktemp("sort") / "in.bin"
        dst = src.with_name("out.bin")
        src.write_bytes(b"".join(packed))
        stats = external_sort(src, dst, MIN_CFG)
        assert stats.merge_passes == 2
        # Compared as a bool: pytest's diff of two failing files is slow.
        same = dst.read_bytes() == b"".join(sorted(packed))
        assert same


class TestEmCount:
    def test_four_cycle_trace(self, tmp_path):
        path = write_graph(tmp_path, [(0, 0), (0, 1), (1, 0), (1, 1)])
        report, io_stats = em_count(path, EmConfig(memory_budget=1 << 30))
        assert report.butterflies == 1
        assert io_stats.pairs_emitted == 2
        assert report.wedges_processed == 2

    def test_huge_budget_degenerates_to_in_memory(self, tmp_path):
        for i, g in enumerate(random_graph_set(6, 15, PROBS, seed=91)):
            path = write_graph(tmp_path, graph_pairs(g), f"g{i}.txt")
            report, io_stats = em_count(path, EmConfig(memory_budget=1 << 30))
            expected = vpp_report(path)
            assert report.butterflies == expected.butterflies
            assert io_stats.pairs_emitted == expected.wedges_processed

    def test_tiny_budget_still_exact(self, tmp_path):
        for i, g in enumerate(random_graph_set(6, 15, PROBS, seed=92)):
            path = write_graph(tmp_path, graph_pairs(g), f"g{i}.txt")
            report, _ = em_count(path, MIN_CFG)
            assert report.butterflies == vpp_report(path).butterflies

    def test_duplicate_edges_collapse(self, tmp_path):
        path = write_graph(tmp_path, [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)])
        report, _ = em_count(path, MIN_CFG)
        assert report.butterflies == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        report, io_stats = em_count(path, MIN_CFG)
        assert report.butterflies == 0
        assert io_stats.pairs_emitted == 0

    def test_blocks_monotone_in_budget(self, tmp_path):
        pairs = random_pairs_m(300, 300, 4000, seed=9)
        path = write_graph(tmp_path, pairs)
        totals = []
        for budget in (16 * 4096, 64 * 4096, 1 << 22):
            _, io_stats = em_count(path, EmConfig(memory_budget=budget,
                                                  block_size=4096))
            totals.append(io_stats.blocks_read + io_stats.blocks_written)
        assert totals[0] >= totals[1] >= totals[2]

    def test_pairs_match_min_degree_workload(self, tmp_path):
        # The emitted pair stream is exactly the end-dominant wedge set.
        for i, g in enumerate(random_graph_set(5, 12, PROBS, seed=93)):
            path = write_graph(tmp_path, graph_pairs(g), f"g{i}.txt")
            _, io_stats = em_count(path, MIN_CFG)
            assert io_stats.pairs_emitted == vpp_report(path).wedges_processed

    def test_vertex_table_must_fit_budget(self, tmp_path):
        pairs = [(i, i) for i in range(1500)]
        path = write_graph(tmp_path, pairs)
        with pytest.raises(ConfigError, match="budget"):
            em_count(path, MIN_CFG)

    def test_vertex_budget_is_checked_while_reading(self, tmp_path):
        # 16 KiB holds the rank table of 2,048 vertices.  The file has
        # 6,000 and ends in a malformed line that the check must not reach.
        path = tmp_path / "g.txt"
        path.write_text(pairs_to_text([(i, i) for i in range(3000)]) + "0 0 0\n")
        with pytest.raises(ConfigError, match="vertices"):
            em_count(path, MIN_CFG)

    def test_vertex_ids_must_fit_32_bits(self, tmp_path, monkeypatch):
        # The limit, not the budget, names the bound: a 1 GiB budget holds
        # the rank table, and raising it would not help.
        monkeypatch.setattr(external, "ID_LIMIT", 8)
        path = write_graph(tmp_path, [(i, i) for i in range(5)])
        with pytest.raises(ConfigError, match="more than 8 vertices: records hold 32-bit"):
            em_count(path, EmConfig(memory_budget=1 << 30))
        assert main(["em", str(path), "--memory-budget", "1GiB"]) == 2
        monkeypatch.setattr(external, "ID_LIMIT", 10)
        report, _ = em_count(path, EmConfig(memory_budget=1 << 30))
        assert report.butterflies == 0

    @settings(max_examples=60, deadline=None)
    @given(graphs(), st.integers(4096, 8192), st.integers(4, 12), st.booleans())
    def test_matches_count_vpp(self, g, block, blocks, chunk_of_one):
        expected = count_vpp(g, assign_priorities(g))
        cfg = EmConfig(memory_budget=blocks * block, block_size=block)
        with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as mp:
            if chunk_of_one:
                mp.setattr(kernel, "CHUNK_WEDGES", 1)
            report, stats = em_count(write_graph(Path(scratch), graph_pairs(g)), cfg)
        assert report.butterflies == expected.butterflies
        assert report.wedges_processed == stats.pairs_emitted == expected.wedges_processed

    @pytest.mark.parametrize("budget, block", [(16 << 10, 4 << 10), (4 << 20, 64 << 10)])
    def test_labels_turn_from_table_to_runs_to_python_ints(self, tmp_path, monkeypatch,
                                                           budget, block):
        # The first chunks are numbered through the label tables, labels
        # from 10**12 convert each index to int64 runs, and labels from
        # 10**30 promote the runs to Python ints: the count is unchanged.
        path = tmp_path / "mixed.txt"
        path.write_text(mixed_label_text())
        g = load_edge_list(path)
        expected = reference_parse(path.read_text())
        assert g.external_labels == expected["external_labels"]
        assert edge_list(g) == expected["edges"]
        forms = {}
        number = LabelIndex.number

        def spied(index, labels):
            indices = number(index, labels)
            form = "table" if index._table is not None else index._runs[0][0].dtype.kind
            if forms.setdefault(id(index), [form])[-1] != form:
                forms[id(index)].append(form)
            return indices

        monkeypatch.setattr(LabelIndex, "number", spied)
        report, stats = em_count(path, EmConfig(memory_budget=budget, block_size=block))
        assert list(forms.values()) == [["table", "i", "O"]] * 2
        vpp = count_vpp(g, assign_priorities(g))
        assert report.butterflies == vpp.butterflies > 0
        assert report.wedges_processed == stats.pairs_emitted == vpp.wedges_processed

    def test_budget_beyond_the_file_reads_only_the_file(self, tmp_path):
        # A run buffer holds up to budget // 8 records: it is sized no larger
        # than the records (or, for pairs, the wedges) there are.
        path = write_graph(tmp_path, [(0, 0), (0, 1), (1, 0), (1, 1)])
        report, _ = em_count(path, EmConfig(memory_budget=1 << 70))
        assert report.butterflies == 1

    @pytest.mark.parametrize("cfg", [MIN_CFG, EmConfig(memory_budget=16 * 4096, block_size=4096)],
                             ids=["min", "mid"])
    def test_each_scratch_file_is_written_once(self, tmp_path, cfg):
        # The kept scratch files account for every block written, the pairs
        # never pass through a file of their own, and a pair run holds no
        # more than the budget leaves after the rank table and one block.
        path = write_graph(tmp_path, random_pairs_m(60, 60, 1200, seed=4))
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        _, stats = em_count(path, dataclasses.replace(cfg, scratch_dir=str(scratch),
                                                      keep_scratch=True))
        [kept] = scratch.iterdir()
        sizes = {f.name: f.stat().st_size for f in kept.iterdir()}
        assert stats.blocks_written == sum(-(-size // cfg.block_size) for size in sizes.values())
        assert not {"pairs.raw", "pairs.sorted"} & set(sizes)
        n = len(parse_edge_list(path.read_text()).degrees)
        capacity = (cfg.memory_budget - 8 * n - cfg.block_size) // external.RECORD_WIDTH
        runs = [size for name, size in sizes.items()
                if name.endswith(".pairs") and name.split(".")[0].isdigit()]
        assert len(runs) > 1
        assert max(runs) <= capacity * external.RECORD_WIDTH

    def test_pair_arrays_fit_the_pair_run_buffer(self, tmp_path, monkeypatch):
        # The emission's arrays are cut at the pair run buffer, not only at
        # the kernel's chunk: at the smallest budget no array it hands over
        # is larger than the buffer, unless it holds one member's pairs.
        path = tmp_path / "dense.txt"
        assert main(["gen", "random", "--a", "100", "--b", "100", "--p", "0.3",
                     "--seed", "1", "--output", str(path)]) == 0
        n = len(parse_edge_list(path.read_text()).degrees)
        real, seen = external._write_runs, []

        def recording(arrays, capacity, *args):
            def seen_arrays():
                for records in arrays:
                    # A pair start * n + end is one of the pairs of its end.
                    members = len(np.unique(records % n))
                    seen.append((len(records), capacity, members))
                    yield records
            return real(seen_arrays() if args[-1] == "pairs" else arrays, capacity, *args)

        monkeypatch.setattr(external, "_write_runs", recording)
        report, stats = em_count(path, MIN_CFG)
        assert report.butterflies == vpp_report(path).butterflies
        assert sum(size for size, _, _ in seen) == stats.pairs_emitted
        assert len(seen) > 1
        for size, capacity, members in seen:
            assert size <= capacity or members == 1

    @pytest.mark.parametrize("n, width", [(65_536, np.uint32), (65_537, np.uint64)])
    def test_pair_keys_take_the_width_n_squared_needs(self, tmp_path, monkeypatch, n, width):
        # K_{50,30} (its 30 lowers of degree 50 take the top ranks) and a
        # matching of degree-1 vertices up to n: the two top-ranked lowers
        # share a middle, so the largest pair is (n - 2) * n + n - 1, which
        # is 2**32 - 65,537 at n = 65,536 and over 2**32 at 65,537.  The
        # block's 21,750 pairs fill two runs of the 15,872 that 640 KiB
        # leaves beside the rank table, merged in one pass.
        pairs = complete_pairs(50, 30)
        pairs += [(50 + i, 30 + i) for i in range((n - 80) // 2)]
        if n % 2:
            pairs.append((0, 30 + (n - 80) // 2))
        path = write_graph(tmp_path, pairs)
        expected = vpp_report(path)
        assert expected.butterflies == math.comb(50, 2) * math.comb(30, 2)
        real, widths, largest = external._write_runs, set(), [0]

        def recording(arrays, capacity, *args):
            def seen_arrays():
                for records in arrays:
                    widths.add(records.dtype.type)
                    largest[0] = max(largest[0], int(records.max(initial=0)))
                    yield records
            return real(seen_arrays() if args[-1] == "pairs" else arrays, capacity, *args)

        monkeypatch.setattr(external, "_write_runs", recording)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        cfg = EmConfig(memory_budget=640 << 10, block_size=4096, scratch_dir=str(scratch),
                       keep_scratch=True)
        report, stats = em_count(path, cfg)
        assert report.butterflies == expected.butterflies
        assert report.wedges_processed == stats.pairs_emitted == expected.wedges_processed
        assert widths == {width}
        assert largest[0] == (n - 2) * n + n - 1
        [kept] = scratch.iterdir()
        assert len(list(kept.glob("[0-9]*.pairs"))) == 2
        assert stats.merge_passes >= 1

    def test_a_failure_in_any_pass_closes_its_files_first(self, tmp_path, monkeypatch):
        # An error in the degree pass, the emission (any block of groups, whose
        # IDs _final_ids reads) or the fold (any call of repeated_runs) closes
        # every file before the scratch dir is removed, not when the garbage
        # collector gets to it.
        path = write_graph(tmp_path, random_pairs_m(60, 60, 1200, seed=4))
        calls, fail_at = [], [0]

        def failing(real):
            def run(*args):
                calls.append(real.__name__)
                if len(calls) == fail_at[0]:
                    raise RuntimeError("injected")
                return real(*args)
            return run

        monkeypatch.setattr(external, "_final_ids", failing(external._final_ids))
        monkeypatch.setattr(kernel, "repeated_runs", failing(kernel.repeated_runs))
        left_open = files_left_open(monkeypatch, external)
        em_count(path, MIN_CFG)
        assert set(calls) == {"_final_ids", "repeated_runs"}
        for fail_at[0] in range(1, len(calls) + 1):
            calls.clear()
            with pytest.raises(RuntimeError, match="injected"):
                em_count(path, MIN_CFG)
            assert left_open == []

    def test_scratch_cleanup_and_keep(self, tmp_path):
        path = write_graph(tmp_path, [(0, 0), (0, 1), (1, 0), (1, 1)])
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        cfg = EmConfig(memory_budget=1 << 20, scratch_dir=str(scratch))
        em_count(path, cfg)
        assert list(scratch.iterdir()) == []
        cfg = EmConfig(memory_budget=1 << 20, scratch_dir=str(scratch),
                       keep_scratch=True)
        em_count(path, cfg)
        kept = list(scratch.iterdir())
        assert len(kept) == 1
        names = {p.name.split(".")[-1] for p in kept[0].iterdir()}
        assert {"raw", "sorted"} <= names


class _StopAfterFirstPass(Exception):
    pass


class TestReadAheadBudget:
    """``em_count``'s first pass parses ahead on as many workers as the
    budget holds chunks in flight, never more than the CPUs, and at least
    one, which parses in the calling thread."""

    @staticmethod
    def pools(monkeypatch) -> list[int]:
        """The worker count of each thread pool the reader starts."""
        sizes = []

        class Pool(graph.ThreadPoolExecutor):
            def __init__(self, workers):
                sizes.append(workers)
                super().__init__(workers)
        monkeypatch.setattr(graph, "ThreadPoolExecutor", Pool)
        return sizes

    @pytest.mark.parametrize("cpus, budget, block, workers", [
        (2, 4 << 20, 64 << 10, 2), (8, 4 << 20, 64 << 10, 2),
        (2, 16 << 10, 4 << 10, 1), (8, 16 << 10, 4 << 10, 1)])
    def test_workers_the_budget_holds(self, tmp_path, monkeypatch, cpus, budget, block,
                                      workers):
        cfg = EmConfig(memory_budget=budget, block_size=block)
        assert external._read_workers(cfg, 2 * block) == workers
        monkeypatch.setattr(graph, "_cpu_limit", lambda: cpus)
        sizes = self.pools(monkeypatch)
        path = tmp_path / "mixed.txt"
        # Three chunks of 2 x 64 KiB, or 38 of 2 x 4 KiB.
        path.write_text(mixed_label_text())
        em_count(path, cfg)
        assert sizes == ([workers] if workers > 1 else [])

    @staticmethod
    def first_pass_file(tmp_path) -> tuple[Path, EmConfig]:
        """100,000 random edge lines, and a 1 MiB budget that holds three
        chunks of 32 KiB characters in flight: two workers."""
        rng = random.Random(1)
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{rng.randrange(3000)} {rng.randrange(3000)}\n"
                                for _ in range(100_000)))
        cfg = EmConfig(memory_budget=1 << 20, block_size=16 << 10)
        assert external._read_workers(cfg, 2 * cfg.block_size) == 2
        return path, cfg

    def test_first_pass_peak_does_not_grow_with_the_cpus(self, tmp_path, monkeypatch):
        # Two workers, on two CPUs or on eight.  A pass peaks higher the more
        # of the workers' parses overlap the calling thread's: 0.89 to 1.37 MB
        # on either side, with runs of passes at either end.  Over 920
        # interleaved pairs of passes, idle and beside a busy process, the
        # sides' medians over any 25 consecutive pairs differed by at most
        # 107,000 bytes.
        path, cfg = self.first_pass_file(tmp_path)

        def stop(*args):
            raise _StopAfterFirstPass(tracemalloc.get_traced_memory()[1])
        monkeypatch.setattr(external, "_sort", stop)
        samples = {2: [], 8: []}
        for cpus in (2, 8) * 25:
            monkeypatch.setattr(graph, "_cpu_limit", lambda cpus=cpus: cpus)
            tracemalloc.start()
            try:
                with pytest.raises(_StopAfterFirstPass) as caught:
                    em_count(path, cfg)
            finally:
                tracemalloc.stop()
            samples[cpus].append(caught.value.args[0])
        peaks = {cpus: statistics.median(seen) for cpus, seen in samples.items()}
        # Each chunk more in flight would add its 327,680-byte charge.
        assert peaks[8] < peaks[2] + 160_000, samples

    def test_eight_cpus_parse_on_two_threads(self, tmp_path, monkeypatch):
        path, cfg = self.first_pass_file(tmp_path)
        monkeypatch.setattr(graph, "_cpu_limit", lambda: 8)
        real, idents = graph._read_chunk, []

        def recording(chunk):
            idents.append(threading.get_ident())
            return real(chunk)
        monkeypatch.setattr(graph, "_read_chunk", recording)
        em_count(path, cfg)
        assert len(idents) > 2 and len(set(idents)) <= 2
        assert threading.get_ident() not in idents

    def test_reports_do_not_depend_on_the_workers(self, tmp_path, monkeypatch):
        path = tmp_path / "mixed.txt"
        path.write_text(mixed_label_text())
        monkeypatch.setattr(graph, "_cpu_limit", lambda: 8)
        outcomes = []
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(external, "_read_workers",
                                lambda cfg, chunk, workers=workers: workers)
            report, stats = em_count(path, MIN_CFG)
            outcomes.append((timeless(report), stats))
        assert outcomes[0][1].merge_passes > 1
        assert outcomes == [outcomes[0]] * 4


class TestWriter:
    def test_narrow_keys_are_written_a_block_at_a_time(self, tmp_path):
        # 16 blocks of uint32 keys, the whole range, go to disk as 8-byte
        # big-endian records; widening them whole would take 16 blocks, one
        # block at a time takes one.  The slack covers the file's buffer.
        block = 64 << 10
        keys = np.random.default_rng(1).integers(0, 1 << 32, 16 * block // 8, dtype=np.uint32)
        keys[:2] = 0, 2 ** 32 - 1
        stats = IoStats()
        path = tmp_path / "keys.bin"
        with external._writer(path, block, stats) as write:
            tracemalloc.start()
            try:
                write(keys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * block + (16 << 10), peak
        assert path.read_bytes() == keys.astype(">u8").tobytes()
        assert stats.blocks_written == 16

    def test_narrow_reads_give_the_written_keys(self, tmp_path):
        keys = np.array([0, 1, 2 ** 31, 2 ** 32 - 1], dtype=np.uint32)
        path = tmp_path / "keys.bin"
        with external._writer(path, 4096, IoStats()) as write:
            write(keys)
        [read] = iter_records(path, 4096, IoStats(), np.uint32)
        assert read.dtype == np.uint32
        assert read.tolist() == keys.tolist()


class TestWholeRuns:
    def test_runs_that_fill_whole_blocks_are_yielded_apart(self):
        blocks = [[1, 1], [2, 2], [2, 3], [3, 3], [4, 5]]
        arrays = external._whole_runs((np.array(b) for b in blocks), lambda keys: keys)
        assert [a.tolist() for a in arrays] == [[1, 1], [2, 2, 2], [3, 3, 3, 4], [5]]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=60), st.sets(st.integers(1, 59)))
    def test_no_run_spans_two_arrays(self, values, cuts):
        values.sort()
        blocks = np.split(np.array(values), sorted(c for c in cuts if c < len(values)))
        arrays = [a.tolist() for a in external._whole_runs(iter(blocks), lambda keys: keys)]
        assert sum(arrays, []) == values
        assert all(a[-1] < b[0] for a, b in zip(arrays, arrays[1:]))
        # An array is at most one block plus one run.
        longest = max(map(len, blocks)) + max(values.count(v) for v in values)
        assert all(a and len(a) <= longest for a in arrays)


def golden_inputs():
    uniform = random_pairs_m(150, 150, 5000, seed=11)
    hubby = hub_pairs(60) + random_pairs_m(90, 90, 3000, seed=2) + hub_pairs(60)[::3]
    # Three uppers of degree 1,500: their groups, and the runs of 1,500
    # equal pairs between them, span several blocks.
    long_runs = complete_pairs(3, 1500) + [(u + 3, v) for u, v in
                                           random_pairs_m(40, 40, 300, seed=5)]
    return {"uniform": uniform + uniform[::7], "hubby": hubby, "long_runs": long_runs}


# Report counters (butterflies, wedges, groups, records scanned, wedges) per
# input, as the engine gave them when it still moved one record at a time
# through block buffers (``long_runs`` as it gave them when it still carried
# the open group and pair run from block to block); and IoStats (blocks read,
# blocks written, pairs, merge passes) per (budget, block size), for 8-byte
# records and pair runs formed as the pairs are emitted, in what the budget
# leaves after the rank table and one block.
GOLDEN = {
    "uniform": ((299421, 103715, 300, 10000, 103715), {
        (4 * 4097, 4097): (1183, 1160, 103715, 7),
        (4 * 4100, 4100): (1182, 1159, 103715, 7),
        (7 * 4100, 4100): (718, 695, 103715, 4),
        (4 * 4096, 4096): (1183, 1160, 103715, 7),
        (6 * 4097, 4097): (732, 709, 103715, 4),
        (1 << 20, 65536): (19, 17, 103715, 0),
    }),
    "hubby": ((408463, 68350, 180, 6334, 68350), {
        (4 * 4097, 4097): (620, 607, 68350, 6),
        (4 * 4100, 4100): (619, 606, 68350, 6),
        (7 * 4100, 4100): (328, 315, 68350, 3),
        (4 * 4096, 4096): (620, 607, 68350, 6),
        (6 * 4097, 4097): (451, 438, 68350, 4),
        (1 << 20, 65536): (12, 11, 68350, 0),
    }),
    "long_runs": ((3376682, 6564, 1543, 9600, 6564), {
        (16 * 4096, 4096): (89, 70, 6564, 2),
        (4 * 4100, 4100): (133, 114, 6564, 5),
        (1 << 20, 65536): (7, 5, 6564, 0),
    }),
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_counters_and_io_are_pinned(self, tmp_path, name):
        # Duplicate edges, B = 4097 and 4100 (records straddle blocks) and
        # up to 6 merge passes over the two sorts.
        path = write_graph(tmp_path, golden_inputs()[name])
        counters, table = GOLDEN[name]
        for (budget, block), io in table.items():
            report, stats = em_count(path, EmConfig(memory_budget=budget, block_size=block))
            assert timeless(report) == CountReport(*counters, 0.0)
            assert (stats.blocks_read, stats.blocks_written, stats.pairs_emitted,
                    stats.merge_passes) == io
