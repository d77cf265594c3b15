"""Smoke test of the wall-clock benchmark (``python -m pytest bench/tests -q``).

Not part of tier-1 (``testpaths`` does not list ``bench``): it runs every
workload for a few seconds in subprocesses, which takes about two minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
SEED = 3
SECONDS = 4

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
BATCH_WORKLOADS = ["tree_batch", "tdc_batch"]
#: simulated-device and cache counters: functions of the inputs alone
EXACT = re.compile(
    r"^(devices\.(sim_device_ms|api_ms|kernel_launches|gather_launches|h2d_bytes)"
    r"|memory\.\w+(_operands|_hits|_misses|_hit_rate)|specialize\.(?!build_ms|dispatch_ms)\w+"
    r"|runtime\.(sync_rounds|batches|nodes_per_batch))$"
)


def run_bench(workload, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {
        (w, trace): result_of(run_bench(w, trace)) for w in WORKLOADS for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted(results, workload, trace):
    result = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"])
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        assert result["metrics"]["fail_share"]["value"] == 0
        assert "trace.overhead_share" in result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_spans_nest(results, workload):
    path = os.path.join(BENCH, "out", f"trace_{workload}_seed{SEED}.json")
    with open(path) as fh:
        events = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
    assert events
    by_seq = {e["args"]["seq"]: e for e in events}
    slack = 1.0  # us: start/end are rounded independently when written
    children = 0
    for e in events:
        parent = by_seq.get(e["args"]["parent"])
        if parent is None:
            assert e["args"]["parent"] is None
            continue
        children += 1
        assert parent["tid"] == e["tid"]
        assert parent["ts"] - slack <= e["ts"]
        assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + slack
        assert e["args"]["self_us"] <= e["dur"] + slack
    assert children
    if workload in BATCH_WORKLOADS:
        assert results[(workload, 1)]["metrics"]["trace.self_sum_error"]["value"] <= 0.01


def test_serving_round_lists_the_requests_it_served(results):
    path = os.path.join(BENCH, "out", f"trace_tree_serve_seed{SEED}.json")
    with open(path) as fh:
        events = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
    flushed = [e for e in events if e["name"] == "serve.flush" and e["args"].get("served")]
    assert flushed
    submitted = {e["args"]["id"] for e in events if e["name"] == "serve.session_submit"}
    assert set(flushed[-1]["args"]["served"]) <= submitted


@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
def test_counters_repeat_exactly_for_one_seed(results, workload):
    first = results[(workload, 1)]["metrics"]
    second = result_of(run_bench(workload, 1))["metrics"]
    exact = [name for name in first if EXACT.match(name)]
    assert len(exact) >= 15
    for name in exact:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is no
    program to measure: no result line, non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("tree_batch", 0, cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
