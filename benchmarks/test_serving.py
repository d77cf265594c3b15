"""Benchmark regenerating the serving table: open-loop traffic through the
flush-policy matrix."""

import math

from repro.experiments import serving
from repro.experiments.harness import save_result


def test_serving_policies(benchmark):
    headers, rows = benchmark.pedantic(serving.run, rounds=1, iterations=1)
    text = serving.format_report(headers, rows)
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

