"""Run every workload once and print the end-to-end metrics side by side.

    python3 perfbench/report.py [--seeds 1,2,3] [--seconds S]

Each workload runs through ``run.py`` in its own process, one after the
other.  ``error_rate`` is failed operations over attempted ones; it is
printed here rather than in ``run.py``'s metrics because it is 0 whenever
the program is correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("uniform", "skewed", "small")


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3", help="one seed per workload")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    results = {}
    for workload, seed in zip(WORKLOADS, seeds):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", "0"], capture_output=True, text=True, check=True)
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"{'metric':14s} {'unit':6s}" + "".join(f"{w:>14s}" for w in results))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        cells = "".join(f"{r['metrics'][name]['value']:14.4f}" for r in results.values())
        print(f"{name:14s} {metric['unit']:6s}{cells}")
    rates = "".join(f"{r['failed'] / r['attempted']:14.4f}" for r in results.values())
    print(f"{'error_rate':14s} {'ratio':6s}{rates}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
