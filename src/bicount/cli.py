"""Command-line interface.

Subcommands: count, edges, stats, parallel, em, approx, gen.  Reports are
JSON by default (TSV with --format tsv) on stdout or --output.  Exit
codes: 0 success, 1 I/O error, 2 parse/config/usage error, 3 overflow.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import approx as approx_mod
from . import generate
from .edges import edge_counts_tsv, per_edge_counts
from .errors import ConfigError, CountOverflowError
from .exact import clustering_from_counts, count_butterflies, count_caterpillars
from .external import EmConfig, em_count
from .graph import assign_priorities, load_edge_list
from .parallel import MODES, STRATEGIES, ScheduleConfig, count_parallel

SIZE_SUFFIXES = {"kib": 1024, "mib": 1024 ** 2, "gib": 1024 ** 3}


def parse_size(text: str) -> int:
    """Accept plain bytes or KiB/MiB/GiB suffixes, e.g. '64KiB', '1MiB'."""
    lowered = text.strip().lower()
    try:
        for suffix, factor in SIZE_SUFFIXES.items():
            if lowered.endswith(suffix):
                return int(float(lowered[: -len(suffix)]) * factor)
        return int(lowered)
    except (ValueError, OverflowError):  # int() of an infinite float overflows
        raise ConfigError(f"unreadable size {text!r}; use bytes or a "
                          f"KiB/MiB/GiB suffix") from None


def _scalars(value, key: str = ""):
    """(key, scalar) for every leaf of a report; a nested mapping or list
    adds its keys or indices, dotted: ``io.blocks_read``,
    ``threads.0.wedges_processed``."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for sub, item in items:
            yield from _scalars(item, f"{key}.{sub}" if key else str(sub))
    else:
        yield key, value


def _report_lines(data: dict) -> str:
    return "".join(f"{key}\t{value}\n" for key, value in _scalars(data))


def _emit(args, data: dict) -> None:
    if args.format == "tsv":
        _write(args, _report_lines(data))
    else:
        _write(args, json.dumps(data, indent=2) + "\n")


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _count_payload(report, algo: str) -> dict:
    data = {"algorithm": algo, **asdict(report)}
    data["elapsed_seconds"] = data.pop("elapsed")
    return data


def _load(args):
    g = load_edge_list(args.input)
    if g.duplicates_dropped:
        print(f"warning: dropped {g.duplicates_dropped} duplicate edges",
              file=sys.stderr)
    return g


def cmd_count(args) -> int:
    g = _load(args)
    report = count_butterflies(g, args.algo)
    _emit(args, _count_payload(report, args.algo))
    return 0


def cmd_edges(args) -> int:
    g = _load(args)
    ec = per_edge_counts(g)
    if args.format == "tsv":
        _write(args, edge_counts_tsv(g, ec))
        return 0
    # The object json.dumps(..., indent=2) gives, with each row on one line:
    # that encoder puts every number on a line of its own, in Python.
    rows = ",\n    ".join(f"[{u}, {v}, {c}]" for u, v, c in zip(*g.edge_labels(), ec.per_edge))
    rows = f"\n    {rows}\n  " if rows else ""
    _write(args, f'{{\n  "butterflies": {ec.butterflies},\n  "edges": [{rows}]\n}}\n')
    return 0


def cmd_stats(args) -> int:
    g = _load(args)
    report = count_butterflies(g, "vpp")
    cate = count_caterpillars(g)
    cc = clustering_from_counts(report.butterflies, cate)
    data = {
        "butterflies": report.butterflies,
        "caterpillars": cate,
        "clustering_coefficient": cc if cc is None else float(cc),
    }
    _emit(args, data)
    return 0


def cmd_parallel(args) -> int:
    g = _load(args)
    cfg = ScheduleConfig(mode=args.schedule, strategy=args.strategy,
                         threads=args.threads, seed=args.seed)
    report, thread_reports = count_parallel(g, assign_priorities(g), cfg)
    data = _count_payload(report, "vpp")
    data["mode"] = cfg.mode
    data["strategy"] = cfg.strategy
    data["threads"] = [asdict(tr) for tr in thread_reports]
    _emit(args, data)
    return 0


def cmd_em(args) -> int:
    cfg = EmConfig(memory_budget=parse_size(args.memory_budget),
                   block_size=parse_size(args.block_size),
                   scratch_dir=args.scratch_dir,
                   keep_scratch=args.keep_scratch)
    report, io_stats = em_count(args.input, cfg)
    data = _count_payload(report, "em")
    data["io"] = asdict(io_stats)
    _emit(args, data)
    return 0


def cmd_approx(args) -> int:
    g = _load(args)
    _, summary = approx_mod.run_trials(g, args.p, args.trials, args.seed,
                                       with_exact=args.exact)
    _emit(args, summary.to_dict())
    return 0


def cmd_gen(args) -> int:
    for flag in ("a", "b", "edges"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise ConfigError(f"--{flag} must be nonnegative, got {value}")
    if not 0 <= args.p <= 1:
        raise ConfigError(f"--p must be in [0, 1], got {args.p}")
    b = args.b if args.b is not None else args.a
    if args.kind == "hub":
        pairs = generate.hub_pairs(args.a, b)
        header = f"hub a={args.a} b={b}"
    elif args.kind == "hubpath":
        pairs = generate.hub_path_pairs(args.a)
        header = f"hubpath a={args.a}"
    elif args.kind == "complete":
        pairs = generate.complete_pairs(args.a, b)
        header = f"complete {args.a}x{b}"
    else:
        if args.edges is not None:
            pairs = generate.random_pairs_m(args.a, b, args.edges, args.seed)
            header = f"random {args.a}x{b} m={args.edges} seed={args.seed}"
        else:
            pairs = generate.random_pairs(args.a, b, args.p, args.seed)
            header = f"random {args.a}x{b} p={args.p} seed={args.seed}"
    _write(args, generate.pairs_to_text(pairs, header))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicount",
        description="Butterfly counting for bipartite edge lists.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--output", default=None, help="write the report here")

    p = sub.add_parser("count", help="exact global count")
    p.add_argument("input")
    p.add_argument("--algo", choices=("ibs", "vp", "vpp"), default="vpp",
                   help="ibs: layer-selected baseline; vp: vertex-priority; "
                        "vpp: end-dominant vertex-priority (default); all three "
                        "count on the vectorized kernel")
    add_io(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("edges", help="exact per-edge counts")
    p.add_argument("input")
    add_io(p)
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("stats", help="butterflies, caterpillars, clustering coefficient")
    p.add_argument("input")
    add_io(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("parallel", help="exact count over scheduled lanes")
    p.add_argument("input")
    p.add_argument("--threads", type=int, default=4,
                   help="lanes to split start vertices over (folded at once, up to one "
                        "worker a CPU as memory allows)")
    p.add_argument("--schedule", choices=MODES, default="dynamic")
    p.add_argument("--strategy", choices=STRATEGIES, default="priority")
    p.add_argument("--seed", type=int, default=0)
    add_io(p)
    p.set_defaults(func=cmd_parallel)

    p = sub.add_parser("em", help="out-of-core exact count")
    p.add_argument("input")
    p.add_argument("--memory-budget", default="64MiB")
    p.add_argument("--block-size", default="64KiB")
    p.add_argument("--scratch-dir", default=None)
    p.add_argument("--keep-scratch", action="store_true")
    add_io(p)
    p.set_defaults(func=cmd_em)

    p = sub.add_parser("approx", help="sampled estimate")
    p.add_argument("input")
    p.add_argument("--p", type=float, default=0.1, help="edge keep probability")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="also run the exact count and report the relative error")
    add_io(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("gen", help="write a synthetic graph")
    p.add_argument("kind", choices=("hub", "hubpath", "complete", "random"))
    p.add_argument("--a", type=int, required=True, help="primary size knob")
    p.add_argument("--b", type=int, default=None, help="secondary size knob")
    p.add_argument("--p", type=float, default=0.1, help="random edge probability")
    p.add_argument("--edges", type=int, default=None,
                   help="random: exact edge count instead of probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CountOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ParseError, ConfigError and bad parameter values (probabilities,
        # sizes) from deeper layers.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
