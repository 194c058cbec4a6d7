"""The edge-list input contract: what the reader accepts, what it rejects,
and at which line.  Files go through ``load_edge_list``, the CLI and the
external engine alike."""

import io
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicount import graph
from bicount.cli import main
from bicount.errors import ConfigError, ParseError
from bicount.exact import count_vpp
from bicount.external import EmConfig, em_count
from bicount.generate import pairs_to_text
from bicount.graph import assign_priorities, load_edge_list, parse_edge_list
from helpers import edge_list, mixed_label_text, neighbor_lists, reference_parse, timeless

HUGE = 10 ** 30
EM_CFG = EmConfig(memory_budget=4 * 4096, block_size=4096)


def write(tmp_path, data, name="g.txt"):
    path = tmp_path / name
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)
    return str(path)


def labelled_edges(g):
    labels = g.external_labels
    return [(labels[u], labels[v]) for u, v in edge_list(g)]


def cli_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if code == 0 else captured.err


class TestHugeLabels:
    TEXT = f"{HUGE} 1\n{HUGE} 2\n{HUGE + 1} 1\n{HUGE + 1} 2\n"

    def test_parse_keeps_python_int_labels(self, tmp_path):
        g = load_edge_list(write(tmp_path, self.TEXT))
        assert labelled_edges(g) == [(HUGE, 1), (HUGE, 2), (HUGE + 1, 1), (HUGE + 1, 2)]
        assert all(type(label) is int for label in g.external_labels)
        text = pairs_to_text(zip(*g.edge_labels()))
        assert labelled_edges(parse_edge_list(text)) == labelled_edges(g)

    def test_count_edges_and_em_exit_0(self, capsys, tmp_path):
        path = write(tmp_path, self.TEXT)
        code, data = cli_json(capsys, ["count", path])
        assert (code, data["butterflies"]) == (0, 1)
        code, data = cli_json(capsys, ["edges", path])
        assert code == 0
        assert data["edges"] == [[HUGE, 1, 1], [HUGE, 2, 1], [HUGE + 1, 1, 1], [HUGE + 1, 2, 1]]
        assert main(["edges", "--format", "tsv", path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1000000000000000000000000000000\t1\t1"
        code, data = cli_json(capsys, ["em", path, "--memory-budget", "1MiB"])
        assert (code, data["butterflies"]) == (0, 1)


class TestAcceptedForms:
    @pytest.mark.parametrize("text", [
        "1\t2\n3\t\t4\n",
        "1 2\r\n3 4\r\n",
        "1 2\r3 4\r",
        "1\x0c2\n3 \x0c 4\n",
        "1\xa02\n3\xa0\xa04\n",
        "  1 2  \n\t3 4\t\n",
    ], ids=["tabs", "crlf", "cr", "form-feed", "nbsp", "padding"])
    def test_separators_and_line_ends(self, tmp_path, text):
        path = write(tmp_path, text)
        g = load_edge_list(path)
        assert labelled_edges(g) == [(1, 2), (3, 4)]
        assert labelled_edges(parse_edge_list(text)) == [(1, 2), (3, 4)]
        report, _ = em_count(path, EM_CFG)
        assert report.butterflies == 0 and report.start_accesses == 4

    def test_sign_underscore_and_leading_zeros(self, tmp_path):
        g = load_edge_list(write(tmp_path, "+5 1_000\n007 1\n7 1\n-0 00\n"))
        assert labelled_edges(g) == [(5, 1000), (7, 1), (0, 0)]
        assert g.duplicates_dropped == 1

    def test_rejected_batch_without_skipped_lines_is_tokenized_once(self, monkeypatch):
        # Leaving out blank and comment lines cannot help a batch that has
        # none.  Each try is one pass of the array path over the batch's bytes.
        calls = []

        def tokenize(data, newline):
            calls.append(data.count(b"\n"))
            return tokenize.real(data, newline)
        tokenize.real = graph._array_labels
        monkeypatch.setattr(graph, "_array_labels", tokenize)
        assert labelled_edges(parse_edge_list("+5 1_000\n007 1\n")) == [(5, 1000), (7, 1)]
        assert calls == [2]
        calls.clear()
        assert labelled_edges(parse_edge_list("% h\n+5 1_000\n007 1\n")) == [(5, 1000), (7, 1)]
        assert calls == [3, 2]

    def test_non_ascii_digit(self, tmp_path):
        g = load_edge_list(write(tmp_path, "٣ 1\n3 2\n"))
        assert labelled_edges(g) == [(3, 1), (3, 2)]
        assert g.upper_count == 1

    def test_comments_blanks_and_no_final_newline(self, tmp_path):
        text = "% header\n# note\n\n   \n1 2\n% again\n3 4"
        g = load_edge_list(write(tmp_path, text))
        assert labelled_edges(g) == [(1, 2), (3, 4)]
        assert labelled_edges(parse_edge_list(text)) == [(1, 2), (3, 4)]

    def test_comment_lines_keep_a_batch_on_the_array_path(self, tmp_path, monkeypatch):
        # A header (as `bicount gen` and KONECT files have), a comment and
        # blank lines among plain lines: the batch is tokenized without them.
        body = [f"{i % 97} {i % 89}\n" for i in range(300)]
        plain = write(tmp_path, "".join(body), "plain.txt")
        headed = write(tmp_path, "% bip unweighted\n" + "".join(body[:100]) + "\n# note\n  \n"
                       + "".join(body[100:]), "headed.txt")
        expected = reference_parse(Path(plain).read_text())

        def line_by_line(*args):
            raise AssertionError("a batch went through read_edges")
        monkeypatch.setattr(graph, "read_edges", line_by_line)
        for g in (load_edge_list(headed), parse_edge_list(Path(headed).read_text())):
            outcome, _ = parse_outcome(lambda: g)
            assert outcome == expected
        assert timeless(em_count(headed, EM_CFG)[0]) == timeless(em_count(plain, EM_CFG)[0])

    def test_empty_file(self, capsys, tmp_path):
        path = write(tmp_path, "")
        g = load_edge_list(path)
        assert (g.vertex_count, g.edge_count, g.duplicates_dropped) == (0, 0, 0)
        code, data = cli_json(capsys, ["count", path])
        assert (code, data["butterflies"]) == (0, 0)
        code, data = cli_json(capsys, ["em", path])
        assert (code, data["butterflies"]) == (0, 0)

    def test_blank_batch_leaves_no_warning(self, recwarn):
        # A batch with no data gives no labels, and no warning.
        assert parse_edge_list(" \n\n").edge_count == 0
        assert not recwarn.list

    def test_invalid_utf8_exits_2(self, capsys, tmp_path):
        path = write(tmp_path, b"1 2\n\xff\xfe 3\n")
        for command in ("count", "edges", "em"):
            code, err = cli_json(capsys, [command, path])
            assert code == 2 and "error" in err


MALFORMED = {
    "three columns": ("1 2 3", "two columns"),
    "one column": ("1", "two columns"),
    "negative label": ("1 -2", "negative"),
    "non-integer label": ("1 x", "non-integer"),
}


class TestParseErrorLine:
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_after_comment_lines(self, capsys, tmp_path, kind):
        bad, message = MALFORMED[kind]
        text = f"% header\n1 2\n# note\n\n3 4\n{bad}\n5 6\n"
        with pytest.raises(ParseError, match=f"line 6: .*{message}"):
            parse_edge_list(text)
        path = write(tmp_path, text)
        with pytest.raises(ParseError, match=f"line 6: .*{message}"):
            load_edge_list(path)
        with pytest.raises(ParseError, match=f"line 6: .*{message}"):
            em_count(path, EM_CFG)
        code, err = cli_json(capsys, ["count", path])
        assert code == 2 and "line 6" in err

    @pytest.mark.parametrize("text", ["Ǿ1 2\n", "1 2ǿ\n"])
    def test_non_ascii_letter_beside_digits(self, tmp_path, text):
        # numpy 2.4's loadtxt read these labels as 4621 and 483; the array
        # path takes only ASCII digits.
        path = write(tmp_path, text)
        for parse in (lambda: parse_edge_list(text), lambda: load_edge_list(path),
                      lambda: em_count(path, EM_CFG)):
            with pytest.raises(ParseError, match="line 1: non-integer"):
                parse()

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_just_past_a_batch_boundary(self, tmp_path, kind):
        # 16-character lines: the malformed line starts at character
        # CHUNK_CHARS, the first character of load_edge_list's second chunk
        # and of one of em_count's (two blocks under EM_CFG).
        bad, message = MALFORMED[kind]
        count = graph.CHUNK_CHARS // 16
        assert graph.CHUNK_CHARS % (2 * EM_CFG.block_size) == 0
        lines = [f"{i % 97:07d} {i % 89:07d}\n" for i in range(count)]
        path = write(tmp_path, "".join(lines) + f"{bad}\n1 1\n")
        with pytest.raises(ParseError, match=f"line {count + 1}: .*{message}"):
            load_edge_list(path)
        with pytest.raises(ParseError, match=f"line {count + 1}: .*{message}"):
            em_count(path, EM_CFG)


@pytest.mark.parametrize("line, labels", [
    ("1.0 2", None), ("1e3 2", None), ("-1 2", None), ("1 2 3", None), ("4", None),
    ("1 2 # c", None), ("9223372036854775808 1", None),
    ("9223372036854775807 0", [2 ** 63 - 1, 0]), ("\t1\x0b2\x0c", [1, 2]),
])
def test_tokenize_reads_two_int64_labels_or_declines(line, labels):
    # The rules the array path keeps; the lines it declines go through
    # read_edges.
    tokens = graph._tokenize(line + "\n")
    assert (None if tokens is None else tokens.tolist()) == labels
    assert tokens is None or tokens.dtype == np.int64


@pytest.mark.parametrize("text, labels", [
    (" \t\x0b\x0c\n\n", []), ("1 2\n \n3 4", [1, 2, 3, 4]),
    ("0000000000000000000000000004 1\n", [4, 1]),
    ("1 99999999999999999999\n", None), ("18446744073709551616 0\n", None),
    ("9223372036854775807 1\n9223372036854775808 1\n", None),
    ("+5 1\n", None), ("1 -2\n", None), ("1 2\r\n", None), ("1 2\r3 4\n", None),
    ("1 2\x0b3 4\n", None), ("1\n2 3 4\n", None), ("1 2\n3", None),
], ids=["blanks", "blank-line", "leading-zeros", "2**64-ish", "2**64", "2**63",
        "plus", "minus", "cr", "cr-inside", "vertical-tab", "one-then-three", "one-last"])
def test_tokenize_declines_what_fromstring_reads_unlike_int(text, labels):
    # numpy's fromstring reads blanks alone as [0], a label of 2**63 or
    # more as 2**63 - 1, signs and "\r" as int does not, and labels
    # across a vertical tab, which ends no line of a file, as one line's:
    # the array path gives no label for blanks and declines the others.
    tokens = graph._tokenize(text)
    assert (None if tokens is None else tokens.tolist()) == labels
    assert tokens is None or tokens.dtype == np.int64


# Lines the array path reads (plain lines; also blanks, long labels, and
# comment lines once they are left out) and lines only the line-by-line
# path reads: signs, underscores, NBSP, labels of 2**63 and more.
label = st.integers(0, 6)
plain_line = st.builds("{}{}{}{}{}".format, st.sampled_from(["", " ", "\t"]), label,
                       st.sampled_from([" ", "\t", "  "]), label, st.sampled_from(["", " "]))
fallback_line = st.one_of(
    st.sampled_from(["% comment", "# 1 2", "", "   ", "+3 1", "1_0 2", "2 +0",
                     "3\xa04", "000000000000000000004 1", "999999999999999999 5"]),
    st.builds("{} {}".format, st.integers(2 ** 63, 2 ** 63 + 2), label),
    st.builds("{} {}".format, label, st.integers(2 ** 64 - 1, 2 ** 64)))
# Labels on both sides of int64's limit, where the array path hands over
# to int.
int64_edge = st.integers(2 ** 63 - 2, 2 ** 63 + 1)
boundary_line = st.one_of(st.builds("{} {}".format, int64_edge, label),
                          st.builds("{} {}".format, label, int64_edge))
# Short ASCII text of digits, whitespace, signs, number syntax, comment
# marks and NUL: what fromstring and int could read differently.
ascii_line = st.text(st.sampled_from("0123456789 \t\x0b\x0c+-_.e%#\x00"), max_size=8)
# Mostly lines of ASCII digits, which the array path's count of runs per
# line rejects.
malformed_line = st.sampled_from(["1 2 3", "4", "1 2 3 4", "7 8 9", "5", "0 0 0 0",
                                  "1 -2", "x 1", "1 2.0", "1\x002"])


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(st.one_of(plain_line, plain_line, plain_line, fallback_line,
                                    boundary_line, ascii_line), max_size=14))
    bad = draw(st.none() | st.tuples(st.integers(0, 14), malformed_line))
    if bad is not None:
        lines.insert(min(bad[0], len(lines)), bad[1])
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if lines and draw(st.booleans()) and text.endswith("\n") else text


def parse_outcome(parse):
    try:
        g = parse()
    except ParseError as exc:
        return exc.line_number, None
    return {"edges": edge_list(g), "external_labels": g.external_labels,
            "duplicates_dropped": g.duplicates_dropped, "degrees": g.degrees.tolist(),
            "adjacency": neighbor_lists(g)}, g


def reference_outcome(text):
    try:
        return reference_parse(text)
    except ParseError as exc:
        return exc.line_number


def check_file_against_reference(path, text):
    """``load_edge_list`` and ``em_count`` read the file ``path`` of
    ``text`` as ``reference_parse`` reads ``text``: the same graph and the
    butterflies and wedges of ``count_vpp`` on it, or the same error line."""
    expected = reference_outcome(text)
    outcome, g = parse_outcome(lambda: load_edge_list(path))
    assert outcome == expected
    if g is None:
        with pytest.raises(ParseError) as caught:
            em_count(path, EM_CFG)
        assert caught.value.line_number == expected
    else:
        report, _ = em_count(path, EM_CFG)
        vpp = count_vpp(g, assign_priorities(g))
        assert (report.butterflies, report.wedges_processed) == \
            (vpp.butterflies, vpp.wedges_processed)


class TestBatchedAgainstLineByLine:
    @settings(max_examples=150, deadline=None)
    @given(edge_list_texts(), st.integers(1, 16))
    # A malformed line that is the second chunk; four tokens on one line,
    # also across a vertical tab, which ends no line of a file.
    @example("0 1\n2 3 4\n", 4)
    @example("1 2 3 4\n", 3)
    @example("1 2\x0b3 4\n", 16)
    def test_same_graph_or_same_error_line(self, text, chunk_chars):
        # Chunks of a few characters split the string and the files every
        # few lines.
        with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "CHUNK_CHARS", chunk_chars)
            path = Path(scratch) / "g.txt"
            path.write_bytes(text.encode("utf-8"))
            # A string reads as the file of that text.
            assert parse_outcome(lambda: parse_edge_list(text))[0] == reference_outcome(text)
            check_file_against_reference(path, text)
            # Chunks are whole lines that add up to the file's text.
            with open(path, encoding="utf-8") as handle:
                chunks = list(graph.text_chunks(handle, chunk_chars))
            assert "".join(chunks) == "".join(io.StringIO(text, newline=None))
            assert all(chunk.endswith("\n") for chunk in chunks[:-1])

    @settings(max_examples=60, deadline=None)
    @given(edge_list_texts(), st.integers(1, 16))
    @example("0 1\n2 3 4\n", 4)
    @example("% h\n1 2\n+3 4\n5 6\n7 x\n", 4)
    def test_same_outcome_on_one_cpu_and_on_four(self, text, chunk_chars):
        # The chunks are parsed in the calling thread, or ahead on worker
        # threads, one a CPU: the same graph or the same error line.
        with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "CHUNK_CHARS", chunk_chars)
            path = Path(scratch) / "g.txt"
            path.write_bytes(text.encode("utf-8"))
            expected = reference_outcome(text)
            for cpus in (1, 4):
                mp.setattr(graph, "_cpu_limit", lambda cpus=cpus: cpus)
                assert parse_outcome(lambda: parse_edge_list(text))[0] == expected
                assert parse_outcome(lambda: load_edge_list(path))[0] == expected


def worker_threads(monkeypatch) -> list[int]:
    """The thread of each chunk the array path reads from now on."""
    idents = []
    real = graph._read_chunk

    def read_chunk(chunk):
        idents.append(threading.get_ident())
        return real(chunk)
    monkeypatch.setattr(graph, "_read_chunk", read_chunk)
    return idents


class TestReadAhead:
    """``read_label_batches`` parses chunks ahead on worker threads that
    live for one pass; with one CPU or one chunk it starts none."""

    LINES = "".join(f"{i % 3000} {i % 7}\n" for i in range(10_000))

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_threads_end_with_the_call(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(graph, "_cpu_limit", lambda: cpus)
        monkeypatch.setattr(graph, "CHUNK_CHARS", 1000)
        path = write(tmp_path, self.LINES)
        # Over 2,048 vertices overflow the smallest budget's rank table at
        # line 2,042, long before the file ends, and line 2,000 raises.
        bad = write(tmp_path, self.LINES.replace("\n1999 ", "\n-1999 "), "bad.txt")
        expected = reference_parse(self.LINES)
        idents = worker_threads(monkeypatch)
        before = threading.active_count()
        main = threading.get_ident()

        def threads(ids):
            # One CPU reads in the calling thread, more on worker threads.
            return ids == {main} if cpus == 1 else main not in ids and len(ids) <= cpus
        assert parse_outcome(lambda: load_edge_list(path))[0] == expected
        assert threading.active_count() == before
        assert parse_outcome(lambda: parse_edge_list(self.LINES))[0] == expected
        assert threading.active_count() == before
        # Even while the error, and so the traceback, is kept.
        with pytest.raises(ParseError, match="line 2000: ") as caught:
            load_edge_list(bad)
        assert threading.active_count() == before and caught.traceback
        assert threads(set(idents))

        def em_threads(edge_path, cfg, error, match):
            """The threads of the chunks of an ``em_count`` that raises."""
            del idents[:]
            with pytest.raises(error, match=match) as caught:
                em_count(edge_path, cfg)
            assert threading.active_count() == before and caught.traceback
            return set(idents)
        # The smallest budget holds one 1,000-character chunk in flight, so
        # em parses inline; 1 MiB holds many, and so does the smallest
        # budget over 100-character chunks: em parses on the workers and
        # raises in the reader or in its own loop while they run.
        assert em_threads(path, EM_CFG, ConfigError, "more than 2048 vertices") == {main}
        assert threads(em_threads(bad, EmConfig(memory_budget=1 << 20, block_size=4096),
                                  ParseError, "line 2000: "))
        monkeypatch.setattr(graph, "CHUNK_CHARS", 100)
        assert threads(em_threads(path, EM_CFG, ConfigError, "more than 2048 vertices"))

    def test_one_chunk_is_read_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(graph, "_cpu_limit", lambda: 4)
        idents = worker_threads(monkeypatch)
        before = threading.active_count()
        assert parse_edge_list("1 2\n3 4\n").edge_count == 2
        assert idents == [threading.get_ident()] and threading.active_count() == before

    def test_batches_come_in_file_order_with_workers_plus_one_in_flight(self, monkeypatch):
        # More workers than CPUs, switching threads often; even chunks take
        # longer to parse, so later ones finish first.
        monkeypatch.setattr(graph, "_cpu_limit", lambda: 8)
        real = graph._read_chunk

        def read_chunk(chunk):
            if int(chunk.split()[-2]) % 2 == 0:
                time.sleep(0.002)
            return real(chunk)
        monkeypatch.setattr(graph, "_read_chunk", read_chunk)
        pulled = 0

        def chunks():
            nonlocal pulled
            for i in range(60):
                pulled += 1
                yield f"{i} {i + 1}\n{i} {i + 2}\n" if i % 3 else f"% {i}\n{i} {i + 1}\n"
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for handed, (upper, lower) in enumerate(graph.read_label_batches(chunks())):
                assert upper.tolist() == [handed] * len(upper)
                assert pulled - handed <= 8 + 1
        finally:
            sys.setswitchinterval(switch)
        assert handed == 59


def huge_first_text() -> str:
    """A 10**30 label in each layer on the first two lines, then dense
    labels: one index holds Python ints from its first batch on."""
    body = "".join(f"{i * 7 % 1500} {i * 11 % 400}\n" for i in range(20_000))
    return f"{HUGE} 7\n7 {HUGE}\n" + body


class TestNumberedAsHandedOn:
    """``load_edge_list`` and ``parse_edge_list`` number each chunk's labels
    as the reader hands the chunk on, in the calling thread, and read as
    ``reference_parse`` reads, whichever form each label index takes."""

    @pytest.fixture(scope="class")
    def texts(self):
        return {name: (text, reference_parse(text)) for name, text in
                (("mixed", mixed_label_text()), ("huge-first", huge_first_text()))}

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_number_is_called_once_per_batch_per_layer(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(graph, "_cpu_limit", lambda: cpus)
        monkeypatch.setattr(graph, "CHUNK_CHARS", 1 << 12)
        path = write(tmp_path, mixed_label_text())
        with open(path, encoding="utf-8") as handle:
            edges = [chunk.count("\n") for chunk in graph.text_chunks(handle, 1 << 12)]
        calls = []
        number = graph.LabelIndex.number

        def spied(index, labels):
            calls.append((index, len(labels)))
            return number(index, labels)
        monkeypatch.setattr(graph.LabelIndex, "number", spied)
        g = load_edge_list(path)
        upper_ids, lower_ids = calls[0][0], calls[1][0]
        assert calls == [call for count in edges
                         for call in ((upper_ids, count), (lower_ids, count))]
        assert len(edges) > 70
        assert (len(upper_ids), len(lower_ids)) == (g.upper_count, g.lower_count)

    @pytest.mark.parametrize("name", ["mixed", "huge-first"])
    @pytest.mark.parametrize("chunk_chars", [1 << 12, 1 << 15, graph.CHUNK_CHARS])
    def test_same_graph_as_the_reference(self, tmp_path, monkeypatch, texts, name,
                                         chunk_chars):
        # mixed: the tables, then runs, then Python ints, across chunks;
        # huge-first: Python ints in the first chunk.
        text, expected = texts[name]
        monkeypatch.setattr(graph, "CHUNK_CHARS", chunk_chars)
        path = write(tmp_path, text)
        for cpus in (1, 4):
            monkeypatch.setattr(graph, "_cpu_limit", lambda cpus=cpus: cpus)
            assert parse_outcome(lambda: load_edge_list(path))[0] == expected
            assert parse_outcome(lambda: parse_edge_list(text))[0] == expected


# 16-character lines: a read of CHUNK chars ends at a line end.
CHUNK = 64
PLAIN = [f"{i:07d} {i % 7:07d}\n" for i in range(12)]


class TestChunkBoundaries:
    """Files that split into chunks of ``CHUNK`` characters, in
    ``load_edge_list`` and ``em_count`` alike (``EM_CFG``'s block is
    larger), each read as ``reference_parse`` reads it."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(graph, "CHUNK_CHARS", CHUNK)

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    @pytest.mark.parametrize("pad", [0, 5], ids=["read-ends-a-line", "read-ends-mid-line"])
    def test_malformed_line_just_past_a_chunk_boundary(self, tmp_path, kind, pad):
        # The first chunk is the first four lines, read to the end of the
        # fourth when the read ends inside it; line 5 starts the next chunk.
        bad, message = MALFORMED[kind]
        lines = ["0" * pad + PLAIN[0]] + PLAIN[1:4] + [bad + "\n"] + PLAIN[4:]
        assert len("".join(lines[:3])) < CHUNK <= len("".join(lines[:4]))
        text = "".join(lines)
        path = write(tmp_path, text)
        with pytest.raises(ParseError, match=f"line 5: .*{message}"):
            load_edge_list(path)
        with pytest.raises(ParseError, match=f"line 5: .*{message}"):
            em_count(path, EM_CFG)
        check_file_against_reference(path, text)

    @pytest.mark.parametrize("at", [0, 2], ids=["first-line", "mid-file"])
    def test_comment_line_longer_than_a_chunk(self, tmp_path, at):
        comment = "% " + "long comment " * (3 * CHUNK // 13) + "\n"
        assert len(comment) > 2 * CHUNK
        text = "".join(PLAIN[:at] + [comment] + PLAIN[at:] + ["x y\n"])
        path = write(tmp_path, text)
        # The line after the comment is numbered past it.
        with pytest.raises(ParseError, match=f"line {len(PLAIN) + 2}: "):
            load_edge_list(path)
        check_file_against_reference(path, text)
        check_file_against_reference(write(tmp_path, text[:-len("x y\n")], "ok.txt"),
                                     text[:-len("x y\n")])

    @pytest.mark.parametrize("last", ["7 7", "7 -7"], ids=["edge", "malformed"])
    def test_last_line_without_newline_across_a_chunk_boundary(self, tmp_path, last):
        # The last line starts before the first read's end and ends past it.
        head = "".join(PLAIN[:3])
        last = " " * (CHUNK - len(head) - 2) + last
        text = head + last
        assert len(head) < CHUNK < len(text)
        path = write(tmp_path, text)
        check_file_against_reference(path, text)
        if "-" in last:
            with pytest.raises(ParseError, match="line 4: negative"):
                load_edge_list(path)
        else:
            assert labelled_edges(load_edge_list(path))[-1] == (7, 7)
