"""The benchmark's measured operation sequence, run in a fresh process:
``python3 perfbench/ops.py PLAN.json``.

The plan names the edge-list files and the settings.  The process runs a
round -- a sequence of batches -- and then goes on through the sequence
for as long as ``plan["seconds"]`` allow.  A batch runs one operation on
every file (the CLI only on the CLI subset), and each in-memory operation
starts from its own fresh ``load_edge_list``.  Every batch is one sample
per operation it timed: the summed time of its calls, with the median time
of the calibration kernel over the batch (``calibrate.py``).  Each
call's results are kept as that round's observation for the gate.  An
operation that raises is recorded as an error and the round goes on.  The
last line of standard output is one JSON object: the samples, per-round
observations, the peak resident memory after the first round and, for a
traced run, the span summary.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import spans
from calibrate import Calibrator

CLI_TIMEOUT_S = 60


def digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


class Measurement:
    def __init__(self, plan: dict, calibrator, tracer=None):
        from bicount import approx, cli, edges, exact, external, graph, parallel
        self.approx, self.cli, self.edges, self.exact = approx, cli, edges, exact
        self.external, self.graph, self.parallel = external, graph, parallel
        self.plan = plan
        self.calibrator = calibrator
        self.tracer = tracer
        # op -> one [seconds, median calibration kernel seconds] per batch
        self.samples: dict[str, list[list[float]]] = defaultdict(list)
        self.spent: dict[str, float] = defaultdict(float)
        self.default_counter = inspect.signature(approx.run_trials).parameters["counter"].default

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def timed(self, op: str, fn):
        """Call ``fn``; its time counts even if it raises, so that every
        batch gives a sample."""
        with self._span(f"op.{op}"):
            start = perf_counter()
            try:
                return fn()
            finally:
                self.spent[op] += perf_counter() - start

    def sequence(self):
        """(operation, function, takes a fresh graph, CLI files only) per
        batch.  A measuring round runs the short operations three times and
        the per-edge counts twice, around the one em pass, so that each
        operation gets several samples even when a run has one round; a
        round with the extra operations runs everything once."""
        short = [("count", self.op_count, True, False),
                 ("parallel", lambda g: self.op_parallel(g, "dynamic", "priority"), True, False),
                 ("approx", self.op_approx, True, False),
                 ("cli", self.op_cli, False, True)]
        edges = ("edges", self.op_edges, True, False)
        em = ("em", self.op_em, False, False)
        if not self.plan["extras"]:
            return short + [edges] + short + [em] + short + [edges]
        return short + [edges, em,
                        ("vp", lambda g: self.op_exact(g, "vp"), True, False),
                        ("ibs", lambda g: self.op_exact(g, "ibs"), True, False),
                        ("static", lambda g: self.op_parallel(g, "static", "heuristic"),
                         True, False),
                        ("extsort", self.op_extsort, False, False),
                        ("cli_inproc", self.op_cli_inproc, False, True)]

    def run(self) -> dict:
        """The sequence of batches, over and over.  After the first whole
        round, a batch runs only if it should end within
        ``plan["seconds"]``, judged by its own last run; the first that
        would not ends the run."""
        files = self.plan["files"]
        cli_files = set(self.plan["cli_files"])
        sequence = self.sequence()
        rounds, peak_kib, took = [], None, {}
        start = perf_counter()
        for position in itertools.cycle(range(len(sequence))):
            if peak_kib is not None and \
                    perf_counter() - start + took[position] > self.plan["seconds"]:
                break
            if position == 0:
                rounds.append([defaultdict(list) for _ in files])
            op, fn, fresh_graph, cli_only = sequence[position]
            began = perf_counter()
            self.spent.clear()
            self.calibrator.start()
            for path, obs in zip(files, rounds[-1]):
                if not cli_only or path in cli_files:
                    self.run_op(op, fn, fresh_graph, path, obs)
            kernel_s = self.calibrator.stop()
            for name, seconds in self.spent.items():
                self.samples[name].append([seconds, kernel_s])
            took[position] = perf_counter() - began
            if peak_kib is None and position == len(sequence) - 1:
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"samples": self.samples, "rounds": rounds, "peak_rss_kib": peak_kib}

    def run_op(self, op, fn, fresh_graph, path, obs) -> None:
        """One call, recorded in ``obs``; an in-memory operation gets a
        freshly loaded graph, the others the file and its observations."""
        def attempt(name, call):
            try:
                obs[name].append(call())
            except Exception as exc:  # a raising op is a failed op; the round goes on
                obs[name].append({"error": f"{type(exc).__name__}: {exc}"})

        if not fresh_graph:
            attempt(op, lambda: fn(path, obs))
            return
        state = {}
        attempt("setup", lambda: self.op_setup(path, state))
        if "g" in state:
            attempt(op, lambda: fn(state.pop("g")))

    def op_setup(self, path, state):
        g = state["g"] = self.timed("setup", lambda: self.graph.load_edge_list(path))
        return {"edges": g.edge_count, "vertices": g.vertex_count,
                "duplicates_dropped": g.duplicates_dropped}

    def op_count(self, g):
        r = self.timed("count", lambda: self.exact.count_butterflies(g, "vpp"))
        return {"butterflies": r.butterflies, "wedges": r.wedges_processed,
                "start_accesses": r.start_accesses, "middle_accesses": r.middle_accesses}

    def op_exact(self, g, algo):
        r = self.timed(algo, lambda: self.exact.count_butterflies(g, algo))
        return {"butterflies": r.butterflies, "wedges": r.wedges_processed,
                "middle_accesses": r.middle_accesses}

    def op_edges(self, g):
        def run():
            ec = self.edges.per_edge_counts(g)
            return ec, self.edges.per_vertex_from_edges(ec, g)
        ec, per_vertex = self.timed("edges", run)
        return {"butterflies": ec.butterflies, "edge_sum": sum(ec.per_edge),
                "vertex_sum": sum(per_vertex), "digest": digest(ec.per_edge)}

    def op_parallel(self, g, mode, strategy):
        op = "parallel" if mode == "dynamic" else "static"
        cfg = self.parallel.ScheduleConfig(mode=mode, strategy=strategy,
                                           threads=self.plan["threads"])

        def run():
            prepared, p2, _ = self.exact.prepare_vpp(g)
            return self.parallel.count_parallel(prepared, p2, cfg)
        report, threads = self.timed(op, run)
        out = {"butterflies": report.butterflies, "wedges": report.wedges_processed,
               "thread_wedges_sum": sum(t.wedges_processed for t in threads)}
        if mode == "static":
            out["thread_wedges"] = [t.wedges_processed for t in threads]
        return out

    def em_config(self):
        return self.external.EmConfig(memory_budget=self.plan["em_budget"],
                                      block_size=self.plan["block_size"],
                                      scratch_dir=self.plan["workdir"])

    def op_em(self, path, obs):
        cfg = self.em_config()
        report, stats = self.timed("em", lambda: self.external.em_count(path, cfg))
        return {"butterflies": report.butterflies, "wedges": report.wedges_processed,
                "pairs_emitted": stats.pairs_emitted, "blocks_read": stats.blocks_read,
                "blocks_written": stats.blocks_written, "merge_passes": stats.merge_passes}

    def op_approx(self, g):
        """``run_trials`` as a user calls it.  Only a run with the extra
        operations passes a counting counter, to record each sample's size
        and give the sample counts a span of their own."""
        p, trials, seed = self.plan["approx_p"], self.plan["approx_trials"], self.plan["seed"]
        sample_edges = []
        extra = {}
        if self.plan["extras"]:
            def counting(sample):
                sample_edges.append(sample.edge_count)
                with self._span("bench.sample_count"):
                    return self.default_counter(sample)
            extra["counter"] = counting
        trial_set, summary = self.timed("approx", lambda: self.approx.run_trials(
            g, p, trials, seed, with_exact=False, **extra))
        scaled = [e * Fraction(p) ** 4 for e in trial_set.estimates]
        out = {"sample_butterflies": [int(s) for s in scaled],
               "integral": all(s.denominator == 1 for s in scaled),
               "mean_matches": summary.mean == sum(trial_set.estimates) / trials,
               "trial_wedges": trial_set.wedges}
        if sample_edges:
            out["sample_edges"] = sample_edges
        return out

    def op_cli(self, path, obs):
        """``python -m bicount count PATH`` until exit, one at a time."""
        proc = self.timed("cli", lambda: subprocess.run(
            [sys.executable, "-m", "bicount", "count", path], capture_output=True,
            text=True, timeout=CLI_TIMEOUT_S, cwd=self.plan["root"]))
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        payload = json.loads(proc.stdout)
        return {"code": proc.returncode, "butterflies": payload["butterflies"],
                "wedges": payload["wedges_processed"]}

    def op_cli_inproc(self, path, obs):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.timed("cli_inproc", lambda: self.cli.main(["count", path]))
        payload = json.loads(out.getvalue())
        return {"code": code, "butterflies": payload["butterflies"],
                "wedges": payload["wedges_processed"]}

    def op_extsort(self, path, obs):
        """external_sort on a seeded file of as many random records as this
        file's em pass emitted pairs, under the em budget; checks the output
        is the sorted input."""
        records = obs["em"][-1]["pairs_emitted"]
        width = self.external.RECORD_WIDTH
        workdir = self.plan["workdir"]
        src, dst = os.path.join(workdir, "records.in"), os.path.join(workdir, "records.out")
        rng = random.Random(self.plan["seed"])
        checksum = 0
        with open(src, "wb") as handle:
            for start in range(0, records, 65536):
                chunk = rng.randbytes(width * min(65536, records - start))
                checksum += _record_sum(chunk, width)
                handle.write(chunk)
        cfg = self.em_config()
        stats = self.timed("extsort", lambda: self.external.external_sort(src, dst, cfg))
        ordered, out_sum, out_records = _scan_sorted(dst, width)
        for path in (src, dst):
            os.remove(path)
        return {"records": records, "ok": ordered and out_sum == checksum and out_records == records,
                "blocks_read": stats.blocks_read, "blocks_written": stats.blocks_written,
                "merge_passes": stats.merge_passes}


def _record_sum(data: bytes, width: int) -> int:
    return sum(int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width))


def _scan_sorted(path, width: int) -> tuple[bool, int, int]:
    """(records ascend byte-wise, sum of records as integers, record count)."""
    ordered, total, count, previous = True, 0, 0, b""
    with open(path, "rb") as handle:
        while chunk := handle.read(width * 65536):
            records = [chunk[i:i + width] for i in range(0, len(chunk), width)]
            if records[0] < previous or any(a > b for a, b in zip(records, records[1:])):
                ordered = False
            previous = records[-1]
            total += sum(int.from_bytes(r, "little") for r in records)
            count += len(records)
    return ordered, total, count


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    tempfile.tempdir = plan["workdir"]
    tracer = None
    if plan["trace_path"]:
        tracer = spans.Tracer()
        tracer.install()
    with Calibrator() as calibrator:
        result = Measurement(plan, calibrator, tracer).run()
    if tracer:
        tracer.uninstall()
        result["trace"] = span_report(tracer, len(result["rounds"][0][0]["setup"]))
        tracer.write(plan["trace_path"])
    print(json.dumps(result))
    return 0


def span_report(tracer, loads: int) -> dict:
    """Per-layer times taken from the spans of a traced run; ``loads`` is
    how often each file was loaded."""
    recorded = tracer.spans
    summary = spans.summarize(recorded)
    under = {
        "graph.parse_s": ("op.setup", ["graph.load_edge_list"]),
        "graph.rank_s": ("op.count", ["graph.assign_priorities"]),
        "graph.project_s": ("op.count", ["graph.project"]),
        "graph.sort_s": ("op.count", ["graph.sort_adjacency"]),
        "exact.vpp_s": ("op.count", ["exact.count_vpp"]),
        "exact.vp_s": ("op.vp", ["exact.count_vp"]),
        "exact.ibs_s": ("op.ibs", ["exact.count_ibs"]),
        "edges.per_edge_s": ("op.edges", ["edges.count_per_edge_evpp"]),
        "edges.per_vertex_s": ("op.edges", ["edges.per_vertex_from_edges"]),
        "parallel.count_s": ("op.parallel", ["parallel.count_parallel"]),
        "parallel.static_s": ("op.static", ["parallel.count_parallel"]),
        "parallel.assign_s": ("op.static", ["parallel.make_static_assignment"]),
        "external.sort_s": ("op.extsort", ["external.external_sort"]),
        "approx.sparsify_s": ("op.approx", ["approx.sparsify"]),
        "approx.sample_count_s": ("op.approx", ["bench.sample_count"]),
    }
    times = {name: spans.time_under(recorded, op, names) for name, (op, names) in under.items()}
    times["graph.parse_s"] /= loads
    for layer in spans.LAYERS:
        times[f"{layer}.self_s"] = sum(row["self_s"] for name, row in summary.items()
                                       if name.startswith(layer + "."))
    return {"spans": len(recorded), "times": times, "summary": summary}


if __name__ == "__main__":
    sys.exit(main(sys.argv))
