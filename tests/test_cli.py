import errno
import gc
import json
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest

from bicount import cli, exact, external
from bicount.cli import main, parse_size
from bicount.edges import per_edge_counts
from bicount.generate import pairs_to_text, random_pairs_m
from bicount.graph import load_edge_list
from helpers import files_left_open

FOUR_CYCLE = "0 0\n0 1\n1 0\n1 1\n"
REPO_ROOT = Path(__file__).resolve().parents[1]

COUNT_KEYS = ["algorithm", "butterflies", "wedges_processed", "start_accesses",
              "middle_accesses", "end_accesses", "elapsed_seconds"]


@pytest.fixture
def four_cycle_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(FOUR_CYCLE)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCount:
    def test_vpp_four_cycle(self, capsys, four_cycle_file):
        code, data = run_json(capsys, ["count", "--algo", "vpp", four_cycle_file])
        assert code == 0
        assert data["butterflies"] == 1
        assert list(data) == COUNT_KEYS

    def test_hub_graph_wedge_numbers(self, capsys, tmp_path):
        hub = tmp_path / "hub.txt"
        assert main(["gen", "hub", "--a", "50", "--output", str(hub)]) == 0
        code, data = run_json(capsys, ["count", "--algo", "ibs", str(hub)])
        assert data["wedges_processed"] == 2500
        code, data = run_json(capsys, ["count", "--algo", "vp", str(hub)])
        assert data["wedges_processed"] == 100
        assert data["butterflies"] == 2 * (50 * 49 // 2)

    def test_tsv_format(self, capsys, four_cycle_file):
        assert main(["count", "--format", "tsv", four_cycle_file]) == 0
        out = capsys.readouterr().out
        assert "butterflies\t1" in out

    def test_output_file(self, tmp_path, four_cycle_file):
        out = tmp_path / "report.json"
        assert main(["count", four_cycle_file, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["butterflies"] == 1

    def test_duplicate_warning_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 0\n0 0\n")
        assert main(["count", str(path)]) == 0
        assert "duplicate" in capsys.readouterr().err


class TestExitCodes:
    def test_parse_error_is_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x y\n")
        assert main(["count", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_is_1(self, capsys, tmp_path):
        assert main(["count", str(tmp_path / "nope.txt")]) == 1

    def test_bad_em_config_is_2(self, capsys, four_cycle_file):
        assert main(["em", four_cycle_file, "--memory-budget", "4KiB"]) == 2

    def test_unreadable_size_is_2(self, capsys, four_cycle_file):
        for flag, size in [("--memory-budget", "lots"), ("--memory-budget", "infMiB"),
                           ("--memory-budget", "1e400KiB"), ("--block-size", "infKiB")]:
            assert main(["em", four_cycle_file, flag, size]) == 2
            assert "size" in capsys.readouterr().err

    def test_bad_probability_is_2(self, capsys, four_cycle_file):
        assert main(["approx", four_cycle_file, "--p", "0.0"]) == 2
        assert main(["approx", four_cycle_file, "--p", "1.5"]) == 2

    @pytest.mark.parametrize("argv, code", [
        (["count", "{dir}"], 1),
        (["count", "{file}", "--output", "{dir}"], 1),
        (["em", "{file}", "--scratch-dir", "{dir}/missing"], 1),
        (["parallel", "{file}", "--threads", "0"], 2),
        (["approx", "{file}", "--trials", "0"], 2),
        (["approx", "{file}", "--p", "nan"], 2),
    ], ids=["input-dir", "output-dir", "missing-scratch-dir", "zero-threads",
            "zero-trials", "nan-p"])
    def test_hostile_arguments(self, capsys, tmp_path, four_cycle_file, argv, code):
        assert main([a.format(dir=tmp_path, file=four_cycle_file) for a in argv]) == code
        assert capsys.readouterr().err.startswith("error: ")

    def test_absurd_thread_count_is_2_without_a_traceback(self, four_cycle_file):
        # The lanes' bookkeeping alone exceeds half of any machine's memory.
        proc = subprocess.run(
            [sys.executable, "-m", "bicount", "parallel", four_cycle_file,
             "--threads", "100000000000000"],
            capture_output=True, text=True, check=False,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
            cwd=REPO_ROOT)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "threads" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["count", "edges", "parallel", "em"])
    def test_count_overflow_is_3(self, capsys, monkeypatch, four_cycle_file, command):
        monkeypatch.setattr(exact, "COUNT_LIMIT", 1)
        assert main([command, four_cycle_file]) == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestSubcommands:
    def test_stats(self, capsys, four_cycle_file):
        code, data = run_json(capsys, ["stats", four_cycle_file])
        assert code == 0
        assert data == {"butterflies": 1, "caterpillars": 4,
                        "clustering_coefficient": 1.0}

    def test_stats_undefined_coefficient(self, capsys, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("0 0\n")
        code, data = run_json(capsys, ["stats", str(path)])
        assert data["clustering_coefficient"] is None

    def test_edges_tsv(self, capsys, four_cycle_file):
        assert main(["edges", "--format", "tsv", four_cycle_file]) == 0
        rows = capsys.readouterr().out.strip().split("\n")
        assert rows == ["0\t0\t1", "0\t1\t1", "1\t0\t1", "1\t1\t1"]

    def test_edges_json(self, capsys, four_cycle_file):
        code, data = run_json(capsys, ["edges", four_cycle_file])
        assert data["butterflies"] == 1
        assert data["edges"][0] == [0, 0, 1]

    @pytest.mark.parametrize("text", [
        "", FOUR_CYCLE, pairs_to_text(random_pairs_m(30, 30, 200, seed=8)),
        "18446744073709551621 3\n7 0\n7 3\n18446744073709551621 0\n",
    ], ids=["empty", "four-cycle", "random", "labels-beyond-int64"])
    def test_edges_json_parses_as_the_indented_dump(self, capsys, tmp_path, text):
        # One "[u, v, c]" line a row, and the object json.dumps(indent=2)
        # of the report gives.
        path = tmp_path / "g.txt"
        path.write_text(text)
        g = load_edge_list(path)
        ec = per_edge_counts(g)
        rows = [list(row) for row in zip(*g.edge_labels(), ec.per_edge)]
        dumped = json.dumps({"butterflies": ec.butterflies, "edges": rows}, indent=2)
        assert main(["edges", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == json.loads(dumped)
        assert out.count("\n") == 4 + (len(rows) + 1 if rows else 0)

    def test_edges_builds_the_tsv_only_for_tsv_output(self, capsys, monkeypatch,
                                                      four_cycle_file):
        real, calls = cli.edge_counts_tsv, []

        def spy(g, ec):
            calls.append((g, ec))
            return real(g, ec)

        monkeypatch.setattr(cli, "edge_counts_tsv", spy)
        run_json(capsys, ["edges", four_cycle_file])
        assert calls == []
        assert main(["edges", "--format", "tsv", four_cycle_file]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == real(*calls[0])

    def test_parallel(self, capsys, four_cycle_file):
        code, data = run_json(capsys, ["parallel", four_cycle_file,
                                       "--threads", "2", "--schedule", "static",
                                       "--strategy", "heuristic"])
        assert code == 0
        assert data["butterflies"] == 1
        assert list(data) == COUNT_KEYS + ["mode", "strategy", "threads"]
        assert len(data["threads"]) == 2
        assert sum(t["vertices_handled"] for t in data["threads"]) == 4

    def test_em(self, capsys, four_cycle_file):
        code, data = run_json(capsys, ["em", four_cycle_file,
                                       "--memory-budget", "1MiB"])
        assert code == 0
        assert data["butterflies"] == 1
        assert list(data) == COUNT_KEYS + ["io"]
        assert list(data["io"]) == ["blocks_read", "blocks_written",
                                    "pairs_emitted", "merge_passes"]
        assert data["io"]["pairs_emitted"] == 2

    def test_tsv_gives_nested_fields_dotted_keys(self, capsys, four_cycle_file):
        # One key and one scalar per line, for the em I/O mapping and the
        # parallel list of lanes alike.
        for argv, field in ((["em", "--memory-budget", "1MiB"], "io"),
                            (["parallel", "--threads", "2"], "threads")):
            _, data = run_json(capsys, argv + [four_cycle_file])
            assert main(argv + ["--format", "tsv", four_cycle_file]) == 0
            rows = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
            nested = data.pop(field)
            items = nested.items() if field == "io" else (
                (f"{i}.{key}", value) for i, lane in enumerate(nested)
                for key, value in lane.items())
            expected = {**data, **{f"{field}.{key}": value for key, value in items}}
            del rows["elapsed_seconds"], expected["elapsed_seconds"]
            assert rows == {key: str(value) for key, value in expected.items()}

    def test_em_budget_beyond_the_file(self, capsys, tmp_path):
        # No read asks numpy for more records than the file holds, however
        # large the budget.
        path = tmp_path / "g.txt"
        path.write_text(pairs_to_text(random_pairs_m(30, 30, 300, seed=7)))
        _, expected = run_json(capsys, ["count", str(path)])
        code, data = run_json(capsys, ["em", str(path), "--memory-budget", "1e30MiB"])
        assert code == 0
        assert data["butterflies"] == expected["butterflies"] > 0

    def test_em_full_disk_is_1_and_closes_its_files(self, capsys, tmp_path, monkeypatch):
        # A scratch write that fails (simulated ENOSPC) at any point of the
        # pipeline exits 1, empties the scratch dir and closes every file
        # before the scratch dir is removed, without the garbage collector.
        # Two failure points are spread over the calls of each writer: the
        # raw adjacency, the adjacency runs, the pair runs (written as the
        # pairs are emitted) and the merges.
        path = tmp_path / "g.txt"
        path.write_text(pairs_to_text(random_pairs_m(60, 60, 1200, seed=4)))
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        argv = ["em", str(path), "--memory-budget", "16KiB", "--block-size", "4KiB",
                "--scratch-dir", str(scratch)]
        real_writer, writers, fail_at = external._writer, [], [0]

        def kind(name):
            if name == "adjacency.raw":
                return "raw"
            if name.split(".")[0].isdigit():
                return "pair run" if name.endswith(".pairs") else "run"
            return "merge"

        @contextmanager
        def writer(path, block_size, stats):
            with real_writer(path, block_size, stats) as real_write:
                def write(records):
                    writers.append(kind(Path(path).name))
                    if len(writers) == fail_at[0]:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    real_write(records)
                yield write

        monkeypatch.setattr(external, "_writer", writer)
        left_open = files_left_open(monkeypatch, external)
        assert main(argv) == 0
        calls = {}
        for call, name in enumerate(writers, 1):
            calls.setdefault(name, []).append(call)
        assert sorted(calls) == ["merge", "pair run", "raw", "run"]
        capsys.readouterr()
        hit = set()
        for fail_at[0] in sorted(c[i] for c in calls.values() for i in (0, len(c) // 2)):
            writers.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv) == 1
                assert left_open == []
                gc.collect()
            hit.add(writers[-1])
            assert len(writers) == fail_at[0]
            assert "No space left on device" in capsys.readouterr().err
            assert list(scratch.iterdir()) == []
            assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert hit == set(calls)

    def test_approx_p_one_matches_exact(self, capsys, four_cycle_file):
        code, data = run_json(capsys, ["approx", four_cycle_file,
                                       "--p", "1.0", "--trials", "1", "--exact"])
        assert code == 0
        assert list(data) == ["p", "trials", "mean", "variance", "exact",
                              "relative_error"]
        assert data["mean"] == data["exact"] == 1
        assert data["relative_error"] == 0

    def test_approx_reports_exact_only_when_asked(self, capsys, four_cycle_file):
        code, data = run_json(capsys, ["approx", four_cycle_file, "--p", "1.0"])
        assert code == 0
        assert list(data) == ["p", "trials", "mean", "variance"]

    def test_gen_count_round_trip(self, capsys, tmp_path):
        path = tmp_path / "k.txt"
        for argv, butterflies in ((["complete", "--a", "3", "--b", "2"], 3),
                                  (["random", "--a", "3", "--b", "2", "--p", "1"], 3),
                                  (["hubpath", "--a", "6"], 0)):
            assert main(["gen", *argv, "--output", str(path)]) == 0
            code, data = run_json(capsys, ["count", str(path)])
            assert data["butterflies"] == butterflies
        assert main(["gen", "random", "--a", "5", "--b", "4", "--edges", "12"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.startswith("% random 5x4 m=12")
        assert len(set(lines)) == len(lines) == 12

    def test_gen_to_stdout(self, capsys):
        assert main(["gen", "complete", "--a", "2", "--b", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("%")
        assert "1 1" in out

    def test_gen_explicit_zero_b(self, capsys):
        assert main(["gen", "complete", "--a", "3", "--b", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("% complete 3x0")
        assert len(out.strip().split("\n")) == 1  # header only, no edges

    def test_gen_too_many_random_edges_is_2(self, capsys):
        assert main(["gen", "random", "--a", "2", "--b", "2",
                     "--edges", "9"]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["random", "--a", "-1"], "--a"),
        (["hub", "--a", "-3"], "--a"),
        (["complete", "--a", "2", "--b", "-2"], "--b"),
        (["random", "--a", "3", "--p", "7"], "--p"),
        (["random", "--a", "2", "--edges", "-1"], "--edges"),
    ], ids=["negative-a", "negative-hub-a", "negative-b", "p-above-1", "negative-edges"])
    def test_gen_unusable_parameters_are_2(self, capsys, tmp_path, argv, flag):
        out = tmp_path / "g.txt"
        assert main(["gen", *argv, "--output", str(out)]) == 2
        assert f"error: {flag} " in capsys.readouterr().err
        assert not out.exists()


class TestParseSize:
    def test_plain_bytes(self):
        assert parse_size("4096") == 4096

    def test_suffixes(self):
        assert parse_size("64KiB") == 64 * 1024
        assert parse_size("1MiB") == 1 << 20
        assert parse_size("2GiB") == 2 << 30


def test_module_entry_point(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(FOUR_CYCLE)
    proc = subprocess.run(
        [sys.executable, "-m", "bicount", "count", str(path)],
        capture_output=True, text=True, check=False,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
        cwd=REPO_ROOT)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["butterflies"] == 1
