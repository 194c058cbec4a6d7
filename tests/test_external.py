import math
import random

import pytest

from bicount.errors import ConfigError
from bicount.exact import count_vpp
from bicount.external import (EmConfig, IoStats, em_count, external_sort,
                              iter_records, RECORD)
from bicount.generate import pairs_to_text, random_pairs_m
from bicount.graph import assign_priorities, parse_edge_list
from helpers import random_graph_set

PROBS = (0.05, 0.1, 0.25, 0.5)
MIN_CFG = EmConfig(memory_budget=4 * 4096, block_size=4096)


def write_graph(tmp_path, pairs, name="g.txt"):
    path = tmp_path / name
    path.write_text(pairs_to_text(pairs))
    return path


def graph_pairs(g):
    l = g.lower_count
    return [(u - l, v) for u, v in g.edges]


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
        return [RECORD.pack(rng.randrange(1 << 40), rng.randrange(1 << 40))
                for _ in range(count)]

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

    def test_truncated_record_rejected(self, tmp_path):
        src = tmp_path / "in.bin"
        src.write_bytes(b"\x00" * 20)
        with pytest.raises(ConfigError, match="truncated"):
            list(iter_records(src, 4096, IoStats()))


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
