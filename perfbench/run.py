"""Benchmark of the bicount engines, measured from outside the package.

    python3 perfbench/run.py --workload skewed|uniform|small --seed N \
        --seconds S --trace 0|1

The run writes the workload's seeded edge lists under ``perfbench/out``
and computes the reference counts (untimed).  Then one fresh process
(``ops.py``) runs the operation sequence in calibrated batches for about
``--seconds``.  Each time metric is the median of its calibrated batch
times (see ``calibrate.py``).  Every result is checked against the
reference and every work counter must repeat exactly.  ``--trace 1``
makes one untraced and one traced round instead, each in its own process,
and reports the per-layer metrics; the spans go to
``perfbench/out/trace-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import calibrate  # noqa: E402  (sibling modules of this script)
import gate  # noqa: E402
import workloads  # noqa: E402

KIB = 1024
EM_BUDGET = {"uniform": 4096 * KIB, "skewed": 4096 * KIB, "small": 256 * KIB}
BLOCK_SIZE = 64 * KIB
THREADS = min(2, os.cpu_count() or 1)
APPROX_P = 0.5
APPROX_TRIALS = 3
DEADLINE_S = 170  # the run gives up on ops.py this long after it started

# In-process operations whose times the end-to-end metrics are.
OPS = ("setup", "count", "edges", "parallel", "em", "approx")
# End-to-end metric -> the operation whose time it is.
E2E_TIMES = {"setup_s": "setup", "count_s": "count", "edges_s": "edges", "parallel_s": "parallel",
             "em_s": "em", "approx_s": "approx", "cli_count_s": "cli"}


class OpsFailed(RuntimeError):
    pass


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = workdir
    return env


def run_pass(plan: dict, deadline: float) -> dict:
    """ops.py in a fresh process, killed at ``deadline`` together with the
    processes it started (its calibration process, a CLI call); returns
    its JSON."""
    plan_path = os.path.join(plan["workdir"], "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    proc = subprocess.Popen([sys.executable, str(HERE / "ops.py"), plan_path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(plan["workdir"]), start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise OpsFailed(f"ops.py did not end within {DEADLINE_S}s of the start") from None
    if proc.returncode != 0 or not stdout.strip():
        raise OpsFailed(f"ops.py exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def cli_startup_s(workdir: str) -> float:
    """Median wall time of a subprocess that only imports bicount."""
    times = []
    for _ in range(3):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import bicount"], check=True,
                       cwd=ROOT, env=child_env(workdir), timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times)


def counter_totals(graphs: list[dict]) -> dict[str, int]:
    """'op.field' -> the field summed over files (lists summed too), taking
    each operation's first observation per file."""
    totals: dict[str, int] = {}
    for obs in graphs:
        for op, entries in obs.items():
            for field, value in entries[0].items():
                if isinstance(value, list):
                    value = sum(value)
                if isinstance(value, int) and not isinstance(value, bool):
                    key = f"{op}.{field}"
                    totals[key] = totals.get(key, 0) + value
    return totals


def calibrated(sample: list[float]) -> float:
    """A batch's seconds scaled to the reference host (see calibrate.py)."""
    seconds, kernel_s = sample
    return seconds * calibrate.REFERENCE_S / kernel_s


def end_to_end_metrics(result: dict) -> dict[str, tuple[float, str, list[list[float]]]]:
    """Metric -> (value, unit, samples): each time metric is the median of
    its calibrated batch times."""
    samples = result["samples"]
    metrics = {}
    for name, op in E2E_TIMES.items():
        metrics[name] = (statistics.median(map(calibrated, samples[op])), "s", samples[op])
    metrics["peak_rss_mib"] = (result["peak_rss_kib"] / 1024, "MiB", [])
    return metrics


def approx_rel_error(graphs: list[dict], refs: list[dict]) -> float:
    """|summed mean estimate - summed reference| / summed reference."""
    scale = Fraction(APPROX_P) ** 4 * APPROX_TRIALS
    estimate = sum(Fraction(sum(obs["approx"][0]["sample_butterflies"])) / scale
                   for obs in graphs)
    exact = sum(ref["butterflies"] for ref in refs)
    return float(abs(estimate - exact) / exact) if exact else 0.0


def per_layer_metrics(untraced: dict, traced: dict, refs: list[dict],
                      startup_s: float) -> dict[str, tuple[float, str]]:
    t = traced["trace"]["times"]
    graphs = traced["rounds"][0]
    c = counter_totals(graphs)
    statics = [obs["static"][0]["thread_wedges"] for obs in graphs]
    mean_load = sum(sum(w) / len(w) for w in statics)
    total = lambda result, op: sum(s[0] for s in result["samples"][op])  # noqa: E731
    op_total = lambda result: sum(calibrated(s) for op in OPS  # noqa: E731
                                  for s in result["samples"][op])
    m = {
        "graph.parse_s": (t["graph.parse_s"], "s"),
        "graph.rank_s": (t["graph.rank_s"], "s"),
        "graph.project_s": (t["graph.project_s"], "s"),
        "graph.sort_s": (t["graph.sort_s"], "s"),
        "graph.edges": (c["setup.edges"], "count"),
        "graph.vertices": (c["setup.vertices"], "count"),
        "graph.duplicates_dropped": (c["setup.duplicates_dropped"], "count"),
        "exact.vpp_s": (t["exact.vpp_s"], "s"),
        "exact.vp_s": (t["exact.vp_s"], "s"),
        "exact.ibs_s": (t["exact.ibs_s"], "s"),
        "exact.wedges": (c["count.wedges"], "count"),
        "exact.ibs_wedges": (c["ibs.wedges"], "count"),
        "exact.wedge_ratio": (c["ibs.wedges"] / max(c["count.wedges"], 1), "ibs/vpp"),
        "exact.middle_accesses": (c["count.middle_accesses"], "count"),
        "exact.wedges_per_s": (c["count.wedges"] / t["exact.vpp_s"], "1/s"),
        "edges.per_edge_s": (t["edges.per_edge_s"], "s"),
        "edges.per_vertex_s": (t["edges.per_vertex_s"], "s"),
        "parallel.count_s": (t["parallel.count_s"], "s"),
        "parallel.static_s": (t["parallel.static_s"], "s"),
        "parallel.assign_s": (t["parallel.assign_s"], "s"),
        "parallel.imbalance": (sum(max(w) for w in statics) / mean_load if mean_load else 1.0,
                               "max/mean"),
        "parallel.speedup": (t["exact.vpp_s"] / t["parallel.count_s"], "vpp/par"),
        "external.blocks_read": (c["em.blocks_read"], "count"),
        "external.blocks_written": (c["em.blocks_written"], "count"),
        "external.merge_passes": (c["em.merge_passes"], "count"),
        "external.pairs_emitted": (c["em.pairs_emitted"], "count"),
        "external.sort_s": (t["external.sort_s"], "s"),
        "external.sort_records_per_s": (c["extsort.records"] / t["external.sort_s"], "1/s"),
        "approx.sparsify_s": (t["approx.sparsify_s"], "s"),
        "approx.sample_count_s": (t["approx.sample_count_s"], "s"),
        "approx.sample_edges": (c["approx.sample_edges"], "count"),
        "approx.trial_wedges": (c["approx.trial_wedges"], "count"),
        "approx.rel_error": (approx_rel_error(graphs, refs), "ratio"),
        "cli.startup_s": (startup_s, "s"),
        "cli.overhead_s": (total(untraced, "cli") - total(untraced, "cli_inproc"), "s"),
        "trace.overhead": (op_total(traced) / op_total(untraced) - 1, "ratio"),
        "trace.spans": (traced["trace"]["spans"], "count"),
    }
    for name, value in t.items():
        if name.endswith(".self_s"):
            m[name] = (value, "s")
    return m


def print_self_times(summary: dict, limit: int = 15) -> None:
    print(f"{'span':44s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    rows = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows[:limit]:
        print(f"{name:44s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")


def measure(args, workdir: str, deadline: float) -> dict:
    inputs = workloads.write_inputs(args.workload, args.seed, workdir)
    paths = [path for path, _ in inputs]
    refs = [gate.reference(path, shape) for path, shape in inputs]
    attempted = len(refs)
    failures = [f for ref in refs for f in gate.check_reference(ref)]
    plan = {"src": str(SRC), "root": str(ROOT), "workdir": workdir, "files": paths,
            "cli_files": workloads.cli_subset(paths), "seed": args.seed,
            "seconds": args.seconds, "em_budget": EM_BUDGET[args.workload],
            "block_size": BLOCK_SIZE, "threads": THREADS, "approx_p": APPROX_P,
            "approx_trials": APPROX_TRIALS, "extras": False, "trace_path": None}
    try:
        if args.trace:
            # One round untraced, then one traced, both with the extra operations.
            once = {**plan, "seconds": 0, "extras": True}
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            results = [run_pass(once, deadline),
                       run_pass({**once, "trace_path": str(trace_path)}, deadline)]
        else:
            results = [run_pass(plan, deadline)]
    except OpsFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": attempted + 1,
                "failed": len(failures) + 1, "metrics": {}}

    rounds = [graphs for result in results for graphs in result["rounds"]]
    for graphs in rounds:
        for obs, ref in zip(graphs, refs):
            n, f = gate.check_graph(obs, ref)
            attempted += n
            failures += f
    failures += gate.check_repeats(rounds)
    for failure in failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(paths)} file(s), "
          f"{len(rounds)} round(s), {attempted} operations, {len(failures)} failed")
    print("counters " + json.dumps(counter_totals(rounds[0]), sort_keys=True))
    metrics = {}
    if args.trace:
        print_self_times(results[1]["trace"]["summary"])
        layer = per_layer_metrics(results[0], results[1], refs, cli_startup_s(workdir))
        for name, (value, unit) in layer.items():
            print(f"{name:30s} {value:14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, (value, unit, samples) in end_to_end_metrics(results[0]).items():
            note = ""
            if samples:
                raw = statistics.median(s[0] for s in samples)
                kernel = statistics.median(s[1] for s in samples)
                note = (f"median of {len(samples)} batches; measured {raw:.4f} s, "
                        f"kernel {kernel * 1000:.2f} ms")
            print(f"{name:14s} {value:12.4f} {unit:4s} {note}")
            metrics[name] = {"value": value, "unit": unit}
        print(f"{'error_rate':14s} {len(failures) / attempted:12.4f} ratio "
              f"{len(failures)} of {attempted}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bicount" / "__init__.py").is_file():
        print(f"error: no bicount package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = measure(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
