"""Self-tests of the benchmark: seeded inputs, the correctness gate and the
span self-time arithmetic.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ops import Measurement  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_seed_fixes_the_input_bytes(workload):
    make = workloads.GENERATORS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_default_seeds_give_the_documented_sizes():
    text = workloads.skewed_text(2)
    assert text.count("\n") == workloads.SKEWED_DRAWS
    assert workloads.shape(text)["edges"] == 185_218
    uniform = workloads.shape(workloads.uniform_text(1))
    assert uniform["edges"] == workloads.UNIFORM_EDGES
    assert uniform["duplicates_dropped"] == 0


def test_shape_counts_distinct_edges_duplicates_and_labels():
    assert workloads.shape("1 2\n1 2\n3 2\n") == {
        "edges": 2, "duplicates_dropped": 1, "vertices": 3}


class FixedCalibrator:
    def start(self):
        pass

    def stop(self):
        return calibrate.REFERENCE_S


@pytest.fixture
def observed(tmp_path, monkeypatch):
    """One round with the extra operations over a small graph."""
    monkeypatch.setenv("PYTHONPATH", str(HERE.parent / "src"))
    path = tmp_path / "g.txt"
    pairs = [(u, v) for u in range(4) for v in range(3)] + [(4, 0), (4, 1), (0, 0)]
    text = "".join(f"{u} {v}\n" for u, v in pairs)
    path.write_text(text)
    plan = {"src": "", "root": str(HERE.parent), "workdir": str(tmp_path),
            "files": [str(path)], "cli_files": [str(path)], "seed": 1, "seconds": 0,
            "em_budget": 256 * 1024, "block_size": 64 * 1024, "threads": 2,
            "approx_p": 0.5, "approx_trials": 3, "extras": True, "trace_path": None}
    result = Measurement(plan, FixedCalibrator()).run()
    assert len(result["rounds"]) == 1
    assert all(len(samples) == 1 for op, samples in result["samples"].items()
               if op != "setup")
    return result["rounds"][0][0], gate.reference(str(path), workloads.shape(text))


def test_gate_passes_correct_results(observed):
    obs, ref = observed
    assert ref["butterflies"] == ref["brute_force"] == 3 * 6 + 4
    assert gate.check_reference(ref) == []
    attempted, failures = gate.check_graph(obs, ref)
    assert attempted == 7 + 11
    assert failures == []


@pytest.mark.parametrize("op", ["count", "edges", "parallel", "em", "cli", "vp", "ibs",
                                "static", "cli_inproc"])
def test_gate_counts_a_corrupted_count(observed, op):
    obs, ref = observed
    obs[op][0]["butterflies"] += 1
    attempted, failures = gate.check_graph(obs, ref)
    assert attempted == 18
    assert len(failures) == 1 and failures[0].startswith(op)


def test_gate_checks_the_parse_against_the_generator(observed):
    obs, ref = observed
    obs["setup"][0]["edges"] -= 1
    assert len(gate.check_graph(obs, ref)[1]) == 1
    ref["loaded"]["duplicates_dropped"] += 1
    assert len(gate.check_reference(ref)) == 1


def test_a_raising_operation_is_a_failure_with_a_sample(tmp_path, monkeypatch):
    path = tmp_path / "g.txt"
    path.write_text("0 0\n0 1\n1 0\n1 1\n")
    plan = {"src": "", "root": str(HERE.parent), "workdir": str(tmp_path),
            "files": [str(path)], "cli_files": [], "seed": 1, "seconds": 0,
            "em_budget": 256 * 1024, "block_size": 64 * 1024, "threads": 2,
            "approx_p": 0.5, "approx_trials": 3, "extras": False, "trace_path": None}
    measurement = Measurement(plan, FixedCalibrator())

    def broken(*args):
        raise OSError("disk full")
    monkeypatch.setattr(measurement.external, "em_count", broken)
    result = measurement.run()
    assert [entry["error"] for entry in result["rounds"][0][0]["em"]] == ["OSError: disk full"]
    assert len(result["samples"]["em"]) == 1


def test_gate_counts_a_raised_operation(observed):
    obs, ref = observed
    obs["em"][0] = {"error": "OSError: disk full"}
    assert len(gate.check_graph(obs, ref)[1]) == 1


def test_repeat_check_flags_a_changed_counter(observed):
    obs, _ = observed
    changed = {op: [dict(e) for e in entries] for op, entries in obs.items()}
    changed["em"][0]["blocks_read"] += 1
    assert gate.check_repeats([[obs], [obs]]) == []
    assert len(gate.check_repeats([[obs], [changed]])) == 1


def test_calibration_scales_to_the_reference_host():
    half_speed = 2 * calibrate.REFERENCE_S
    assert run.calibrated([3.0, half_speed]) == 1.5
    result = {"samples": {op: [[1.0, calibrate.REFERENCE_S], [5.0, half_speed],
                               [9.0, calibrate.REFERENCE_S]]
                          for op in run.E2E_TIMES.values()},
              "peak_rss_kib": 2048}
    metrics = run.end_to_end_metrics(result)
    assert metrics["em_s"][0] == 2.5 and metrics["peak_rss_mib"][0] == 2.0


def test_calibrator_times_the_kernel_over_a_window_and_stops():
    with calibrate.Calibrator() as calibrator:
        for _ in range(2):
            calibrator.start()
            assert 0 < calibrator.stop() < 1
    assert calibrator.proc.returncode == 0


def test_self_time_subtracts_the_union_of_children():
    synthetic = [
        (1, None, "a", 0.0, 10.0),
        (2, 1, "b", 1.0, 4.0),
        (3, 1, "c", 3.0, 6.0),     # overlaps b: the union 1..6 counts once
        (4, 2, "d", 2.0, 3.0),
        (5, 3, "e", 5.0, 7.0),     # runs past its parent: clipped to 5..6
    ]
    assert spans.self_time(synthetic) == {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 2.0}
    summary = spans.summarize(synthetic)
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert spans.time_under(synthetic, "a", ["b", "d"]) == 3.0


def test_tracer_records_nested_layer_calls():
    from bicount import exact, generate
    g = generate.complete_graph(3, 3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("op.count"):
            assert exact.count_butterflies(g, "vpp").butterflies == 9
    finally:
        tracer.uninstall()
    names = {s[2]: s for s in tracer.spans}
    assert names["exact.prepare_vpp"][1] == names["exact.count_butterflies"][0]
    assert names["exact.count_butterflies"][1] == names["op.count"][0]
    assert spans.time_under(tracer.spans, "op.count", ["graph.assign_priorities"]) > 0
    assert not hasattr(exact.count_butterflies, "__wrapped__")
