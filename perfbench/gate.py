"""Correctness gate: the reference results and the per-operation checks.

The reference is ``count_ibs``, computed once per workload and seed outside
the timed rounds.  Its wedge rule differs from the priority engines', so a
priority bug cannot mirror itself in the reference.  Small graphs are also
checked against the brute-force per-edge oracle, whose quadruple
enumeration gives both the count and the per-edge counts.  Every
observation a round records is deterministic, so repeated rounds must agree
exactly.
"""

from __future__ import annotations

from ops import digest

BRUTE_FORCE_EDGES = 10_000


SHAPE = ("edges", "vertices", "duplicates_dropped")


def reference(path: str, shape: dict) -> dict:
    """Reference results for one edge-list file (untimed).  ``shape`` is
    what the generator knows of the file; the parse the reference rests on
    is kept as ``loaded`` and must agree with it."""
    from bicount import edges, exact, graph
    g = graph.load_edge_list(path)
    ibs = exact.count_ibs(g)
    ref = {**{k: shape[k] for k in SHAPE},
           "loaded": {"edges": g.edge_count, "vertices": g.vertex_count,
                      "duplicates_dropped": g.duplicates_dropped},
           "butterflies": ibs.butterflies, "ibs_wedges": ibs.wedges_processed,
           "vp_wedges": exact.count_butterflies(g, "vp").wedges_processed}
    if g.edge_count <= BRUTE_FORCE_EDGES:
        brute = edges.brute_force_per_edge(g)
        ref["brute_force"] = brute.butterflies
        ref["digest"] = digest(brute.per_edge)
    return ref


def _same_count(o, r) -> bool:
    return o["butterflies"] == r["butterflies"]


def _vp_rule(o, r) -> bool:
    """Same count, and as many wedges as the vertex-priority rule processes."""
    return _same_count(o, r) and o["wedges"] == r["vp_wedges"]


def _cli_ok(o, r) -> bool:
    return o["code"] == 0 and _vp_rule(o, r)


CHECKS = {
    "setup": lambda o, r: all(o[k] == r[k] for k in SHAPE),
    "count": _vp_rule,
    "edges": lambda o, r: (_same_count(o, r) and o["edge_sum"] == 4 * r["butterflies"]
                           and o["vertex_sum"] == 4 * r["butterflies"]
                           and o["digest"] == r.get("digest", o["digest"])),
    "parallel": lambda o, r: (_same_count(o, r)
                              and o["wedges"] == o["thread_wedges_sum"] == r["vp_wedges"]),
    "em": lambda o, r: _same_count(o, r) and o["pairs_emitted"] == r["vp_wedges"],
    "approx": lambda o, r: (o["integral"] and o["mean_matches"]
                            and all(b <= r["butterflies"] for b in o["sample_butterflies"])
                            and all(m <= r["edges"] for m in o.get("sample_edges", ()))),
    "cli": _cli_ok,
    "vp": _vp_rule,
    "ibs": lambda o, r: _same_count(o, r) and o["wedges"] == r["ibs_wedges"],
    "static": lambda o, r: (_same_count(o, r)
                            and sum(o["thread_wedges"]) == o["wedges"] == r["vp_wedges"]),
    "extsort": lambda o, r: o["ok"],
    "cli_inproc": _cli_ok,
}


def check_reference(ref: dict) -> list[str]:
    """The reference's parse must match the generator's shape, and its
    count the brute-force oracle where that ran."""
    failures = []
    if not CHECKS["setup"](ref["loaded"], ref):
        failures.append(f"reference load {ref['loaded']} != generated shape "
                        f"{ {k: ref[k] for k in SHAPE} }")
    if "brute_force" in ref and ref["brute_force"] != ref["butterflies"]:
        failures.append(f"count_ibs {ref['butterflies']} != brute force {ref['brute_force']}")
    return failures


def check_graph(obs: dict, ref: dict) -> tuple[int, list[str]]:
    """(operations attempted, failure messages) for one file's observations."""
    attempted, failures = 0, []
    for op, entries in obs.items():
        for entry in entries:
            attempted += 1
            if "error" in entry:
                failures.append(f"{op}: {entry['error']}")
            elif not CHECKS[op](entry, ref):
                failures.append(f"{op}: {entry} disagrees with reference {ref}")
    return attempted, failures


def check_repeats(rounds: list[list[dict]]) -> list[str]:
    """Every observation is a deterministic work counter: each call must
    repeat the first round's first call of that operation exactly."""
    failures = []
    for k, graphs in enumerate(rounds):
        for i, (obs, base) in enumerate(zip(graphs, rounds[0])):
            for op in obs.keys() & base.keys():
                for entry in obs[op]:
                    if entry != base[op][0]:
                        failures.append(f"round {k} file {i} {op}: {entry} != {base[op][0]}")
    return failures
