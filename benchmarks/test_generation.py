"""Benchmark regenerating the autoregressive-decode table: per-request vs
continuously batched generation, fully deterministic on the simulated
clock."""

import math

from repro.experiments import generation
from repro.experiments.harness import save_result


def test_generation_continuous_batching(benchmark):
    headers, rows = benchmark.pedantic(generation.run, rounds=1, iterations=1)
    text = generation.format_report(headers, rows)
    save_result("generation", text)
    print("\n" + text)

    col = {name: i for i, name in enumerate(headers)}
    by_config = {(row[col["model"]], row[col["mode"]]): row for row in rows}

    for row in rows:
        # batching decode cohorts must never change a single token: every
        # trajectory equals the eager reference loop exactly, and every
        # row replays bit-for-bit (tokens and timestamps)
        assert row[col["matches_ref"]] == "yes"
        assert row[col["deterministic"]] == "yes"
        assert math.isfinite(row[col["ttfs_p50_ms"]])
        assert row[col["ttfs_p50_ms"]] > 0
        assert row[col["tok_per_s"]] > 0

    # the tentpole win: one round per decode-step cohort instead of one
    # round per sequence-step.  The committed table shows ~3x (TTFS) and
    # ~3.5x (throughput) on both cells; the replay is deterministic (simulated time), so a
    # generous-but-real floor is exact, not flaky.
    for model in generation.MODELS:
        per_req = by_config[(model, "per_request")]
        cont = by_config[(model, "continuous")]
        ttfs_win = per_req[col["ttfs_p50_ms"]] / cont[col["ttfs_p50_ms"]]
        assert ttfs_win >= 1.3, (
            f"{model}: continuous-batching TTFS win {ttfs_win:.3f} fell "
            "below the 1.3x floor"
        )
        tput_win = cont[col["tok_per_s"]] / per_req[col["tok_per_s"]]
        assert tput_win >= 1.3, (
            f"{model}: continuous-batching throughput win {tput_win:.3f} "
            "fell below the 1.3x floor"
        )
        # the win comes from real cross-request rounds: the cohort batches
        # and amortizes kernel launches
        assert cont[col["mean_batch"]] > 2.0
        assert cont[col["kern_per_tok"]] < per_req[col["kern_per_tok"]]
        # inter-step p99 — the decode SLO — must improve too: each token
        # costs one shared round, not a queue of serialized rounds
        assert cont[col["inter_p99_ms"]] <= per_req[col["inter_p99_ms"]]
