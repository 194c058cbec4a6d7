"""The names ``bicount`` exports: adding or removing one changes this list."""

import types

import bicount

PUBLIC_NAMES = (
    "BipartiteGraph", "ConfigError", "ConsistencyError", "CountOverflowError",
    "CountReport", "EdgeCounts", "EmConfig", "GuardError", "IoStats",
    "ParseError", "ScheduleConfig", "ThreadReport", "TrialSet", "TrialSummary",
    "assign_priorities", "brute_force_per_edge", "count_butterflies",
    "count_caterpillars", "count_ibs", "count_parallel", "count_per_edge_evpp",
    "count_vp", "count_vpp", "edge_counts_tsv", "em_count", "external_sort",
    "load_edge_list", "make_static_assignment", "parse_edge_list",
    "per_edge_counts", "per_vertex_from_edges", "read_edges", "run_trials",
    "sparsify",
)


def test_public_names_are_pinned():
    # Submodules become attributes of the package as they are imported, so
    # only the names its __init__ binds count.
    exported = sorted(name for name, value in vars(bicount).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert tuple(exported) == PUBLIC_NAMES
    assert list(PUBLIC_NAMES) == sorted(PUBLIC_NAMES)
