"""The record ``tools/bench_pairs.py`` appends to ``BENCH_wallclock.json``,
built from two canned ``bench/run.py`` result lines per side."""

import importlib.util
import json
import os
import subprocess

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


def traced_line(interp_ms, nodes_per_batch):
    """What one ``bench/run.py --workload W --trace 1`` run prints last."""
    metrics = {
        "kernels.interp_ms": {"value": interp_ms, "unit": "ms"},
        "runtime.nodes_per_batch": {"value": nodes_per_batch, "unit": "count"},
    }
    return json.dumps({"correct": True, "attempted": 64, "failed": 0, "metrics": metrics}) + "\n"


PER_LAYER = [
    {"name": "kernels.interp_ms", "unit": "ms", "better": "lower"},
    {"name": "runtime.nodes_per_batch", "unit": "count", "better": "higher"},
]


def test_traced_pairs_record_the_per_layer_metrics(bench_pairs, monkeypatch):
    """``--trace``: the runs are ``--trace 1`` and the record keeps the
    per-layer metrics in the end-to-end record's shape."""
    commands, lines = [], iter([traced_line(4.2, 21.0), traced_line(2.5, 21.0),
                                traced_line(2.4, 21.0), traced_line(4.0, 22.0)])

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout=next(lines), stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    parent = [bench_pairs.run_once("parent", "tdc_batch", 7, 24, trace=1)]
    change = [bench_pairs.run_once("change", "tdc_batch", 7, 24, trace=1)]
    change.append(bench_pairs.run_once("change", "tdc_batch", 8, 24, trace=1))
    parent.append(bench_pairs.run_once("parent", "tdc_batch", 8, 24, trace=1))
    assert all(cmd[-2:] == ["--trace", "1"] for cmd in commands)
    record = bench_pairs.make_record(
        "abc1234", "24336a3", "tdc_batch", [7, 8], 24, parent, change, PER_LAYER, trace=1
    )
    assert record["trace"] == 1
    assert list(record["metrics"]) == ["kernels.interp_ms", "runtime.nodes_per_batch"]
    interp = record["metrics"]["kernels.interp_ms"]
    assert interp["parent"]["median"] == 4.1 and interp["change"]["median"] == 2.45
    assert (interp["wins"], interp["pairs"]) == (2, 2)
    nodes = record["metrics"]["runtime.nodes_per_batch"]
    assert (nodes["wins"], nodes["unit"]) == (0, "count")  # 21 == 21, 21 < 22


def summary(better, parent, change, wins, pairs=10):
    """A metric of a record: ``parent`` / ``change`` are (q1, median, q3)."""
    return {
        "better": better,
        "parent": dict(zip(("q1", "median", "q3"), parent)),
        "change": dict(zip(("q1", "median", "q3"), change)),
        "wins": wins,
        "pairs": pairs,
    }


@pytest.mark.parametrize(
    "metric, bound, expected",
    [
        # 9/10 wins and a median gain (10) beyond the parent's IQR (8)
        (summary("higher", (96, 100, 104), (108, 110, 112), 9), 0.25, "gain"),
        (summary("lower", (96, 100, 104), (88, 90, 92), 9), 0.25, "gain"),
        (summary("lower", (96, 100, 104), (88, 90, 92), 18, pairs=20), 0.25, "gain"),
        # 8/10 wins is short of 9 in every 10; five pairs are too few
        (summary("higher", (96, 100, 104), (108, 110, 112), 8), 0.25, "flat"),
        (summary("higher", (96, 100, 104), (108, 110, 112), 5, pairs=5), 0.25, "flat"),
        # every pair won, but by no more than the parent's spread
        (summary("higher", (96, 100, 104), (106, 108, 110), 10), 0.25, "flat"),
        # worse than the parent by more than the bound's share of its median
        (summary("higher", (96, 100, 104), (70, 74, 78), 0), 0.25, "worse"),
        (summary("lower", (96, 100, 104), (110, 116, 120), 0), 0.15, "worse"),
        # worse, but within the bound
        (summary("lower", (96, 100, 104), (110, 114, 120), 0), 0.15, "flat"),
        (summary("higher", (96, 100, 104), (74, 76, 78), 0), 0.25, "flat"),
        # a metric without a bound is never judged worse
        (summary("lower", (96, 100, 104), (190, 200, 210), 0), None, "flat"),
    ],
)
def test_verdict(bench_pairs, metric, bound, expected):
    assert bench_pairs.verdict(metric, bound) == expected


def test_the_record_carries_each_metrics_verdict(bench_pairs):
    parent = [bench_pairs.parse_result(result_line(1000.0 + i, 60.0)) for i in range(10)]
    change = [bench_pairs.parse_result(result_line(1100.0 + i, 80.0)) for i in range(10)]
    record = bench_pairs.make_record(
        "abc1234", "24336a3", "tree_batch", range(10), 24, parent, change, DECLARED
    )
    assert record["metrics"]["throughput_per_s"]["verdict"] == "gain"
    assert record["metrics"]["latency_p50_ms"]["verdict"] == "worse"  # +33% > 25%
    unbounded = [{"name": "latency_p50_ms", "unit": "ms", "better": "lower"}]
    traced = bench_pairs.make_record(
        "abc1234", "24336a3", "tree_batch", range(10), 24, parent, change, unbounded, trace=1
    )
    assert traced["metrics"]["latency_p50_ms"]["verdict"] == "flat"  # no bound
