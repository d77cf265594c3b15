"""The record ``tools/bench_pairs.py`` appends to ``BENCH_wallclock.json``,
built from two canned ``bench/run.py`` result lines per side."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(throughput, p50, correct=True, failed=0):
    """What one ``bench/run.py --workload W --trace 0`` run prints: metric
    lines, then the JSON result line."""
    metrics = {
        "throughput_per_s": {"value": throughput, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"},
    }
    return (
        f"tree_batch throughput_per_s = {throughput} 1/s\n"
        + json.dumps({"correct": correct, "attempted": 64, "failed": failed, "metrics": metrics})
        + "\n"
    )


DECLARED = [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def test_record_schema(bench_pairs):
    parent = [bench_pairs.parse_result(result_line(900.0, 64.0)),
              bench_pairs.parse_result(result_line(1000.0, 60.0))]
    change = [bench_pairs.parse_result(result_line(1200.0, 50.0)),
              bench_pairs.parse_result(result_line(1000.0, 61.0))]
    record = bench_pairs.make_record(
        "abc1234", "24336a3", "tree_batch", range(500, 502), 24, parent, change, DECLARED
    )
    assert json.loads(json.dumps(record)) == record  # plain JSON types only
    assert {k: record[k] for k in ("commit", "parent", "workload", "seeds", "seconds")} == {
        "commit": "abc1234", "parent": "24336a3", "workload": "tree_batch",
        "seeds": [500, 501], "seconds": 24,
    }
    assert list(record["metrics"]) == ["throughput_per_s", "latency_p50_ms"]
    rate = record["metrics"]["throughput_per_s"]
    assert rate["unit"] == "1/s" and rate["better"] == "higher"
    assert rate["parent"] == {"q1": 925.0, "median": 950.0, "q3": 975.0}
    assert rate["change"] == {"q1": 1050.0, "median": 1100.0, "q3": 1150.0}
    assert (rate["wins"], rate["pairs"]) == (1, 2)  # the tie counts for neither side
    assert rate["runs"] == {"parent": [900.0, 1000.0], "change": [1200.0, 1000.0]}
    p50 = record["metrics"]["latency_p50_ms"]
    assert (p50["wins"], p50["pairs"]) == (1, 2)  # lower is better: 50 < 64, 61 > 60


def test_a_single_pair_has_a_degenerate_spread(bench_pairs):
    runs = [bench_pairs.parse_result(result_line(900.0, 64.0))]
    record = bench_pairs.make_record("a", "b", "tree_batch", [7], 24, runs, runs, DECLARED)
    assert record["metrics"]["latency_p50_ms"]["parent"] == {"q1": 64.0, "median": 64.0, "q3": 64.0}
    assert record["metrics"]["latency_p50_ms"]["wins"] == 0


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 3}])
def test_a_failed_run_is_not_recorded(bench_pairs, bad):
    with pytest.raises(RuntimeError, match="reference check"):
        bench_pairs.parse_result(result_line(900.0, 64.0, **bad))
