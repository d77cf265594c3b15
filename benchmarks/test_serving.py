"""Benchmark regenerating the serving table: open-loop traffic through the
flush-policy matrix, plus the memory planner's plan-cache comparison."""

import math

from repro.experiments import serving
from repro.experiments.harness import save_result


def test_serving_policies(benchmark):
    headers, rows = benchmark.pedantic(serving.run, rounds=1, iterations=1)
    cache_headers, cache_rows = serving.run_plan_cache()
    text = serving.format_report(headers, rows, cache_headers, cache_rows)
    save_result("serving", text)
    print("\n" + text)

    col = {name: i for i, name in enumerate(headers)}
    by_config = {(row[col["model"]], row[col["policy"]]): row for row in rows}

    for model in ("treelstm", "birnn"):
        # batching policies must never change results
        for label, _, _ in serving.POLICIES:
            assert by_config[(model, label)][col["matches_ref"]] == "yes"
        # the serving win: deadline and adaptive batching both cut kernel
        # launches >= 3x vs per-request execution at finite tail latency
        for label in ("deadline(5ms)", "adaptive"):
            row = by_config[(model, label)]
            assert row[col["launch_reduction"]] >= 3.0
            assert math.isfinite(row[col["p99_ms"]]) and row[col["p99_ms"]] > 0
            assert row[col["mean_batch"]] > 1.0

    # plan cache: >= 50% hit rate over structurally identical flushes,
    # asserted (and reported) on the deterministic hit/miss counters — a
    # pure function of the flush structure: identical rounds plan once and
    # hit ever after, and the disabled cache never counts a hit
    ccol = {name: i for i, name in enumerate(cache_headers)}
    cache = {row[ccol["config"]]: row for row in cache_rows}
    on, off = cache["plan_cache=on"], cache["plan_cache=off"]
    assert on[ccol["hit_rate"]] >= 0.5
    assert on[ccol["misses"]] == 1
    assert on[ccol["hits"]] == on[ccol["flushes"]] - 1
    assert off[ccol["hits"]] == 0 and off[ccol["hit_rate"]] == 0.0
