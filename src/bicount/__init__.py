"""Butterfly (2x2 biclique) counting for bipartite graphs: exact,
per-edge, parallel, out-of-core, and sampling-based engines over one
priority-ordered adjacency representation."""

from .approx import TrialSet, TrialSummary, run_trials, sparsify
from .edges import (EdgeCounts, brute_force_per_edge, count_per_edge_evpp,
                    edge_counts_tsv, per_edge_counts, per_vertex_from_edges)
from .errors import (ConfigError, ConsistencyError, CountOverflowError,
                     GuardError, ParseError)
from .exact import (CountReport, count_butterflies, count_caterpillars,
                    count_ibs, count_vp, count_vpp)
from .external import EmConfig, IoStats, em_count, external_sort
from .graph import (BipartiteGraph, assign_priorities, load_edge_list,
                    parse_edge_list, read_edges)
from .parallel import (ScheduleConfig, ThreadReport, count_parallel,
                       make_static_assignment)

__version__ = "0.1.0"
