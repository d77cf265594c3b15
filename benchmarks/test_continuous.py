"""Benchmark regenerating the continuous-batching table: caller-driven vs
event-loop intake under bursty open-loop traffic, fully deterministic."""

import math

from repro.experiments import continuous
from repro.experiments.harness import save_result


def test_continuous_beats_caller_driven(benchmark):
    headers, rows = benchmark.pedantic(continuous.run, rounds=1, iterations=1)
    text = continuous.format_report(headers, rows)
    save_result("continuous", text)
    print("\n" + text)

    col = {name: i for i, name in enumerate(headers)}
    by_config = {
        (row[col["model"]], row[col["policy"]], row[col["mode"]]): row
        for row in rows
    }

    for row in rows:
        # intake choreography must never change results, and the simulated
        # timeline must be a pure function of the trace (bit-for-bit
        # reproducible — the run itself replays every config twice)
        assert row[col["matches_ref"]] == "yes"
        assert row[col["deterministic"]] == "yes"
        assert math.isfinite(row[col["p99_ms"]]) and row[col["p99_ms"]] > 0

    # the tentpole win: under bursty traffic at saturation, the event loop
    # beats caller-driven flushing on BOTH throughput and p99 for every
    # model/policy pair (the acceptance criterion asks for at least one;
    # the committed table shows ~1.1x throughput and ~0.8x p99 margins,
    # and the numbers are deterministic, so the floors are exact)
    for model in continuous.MODELS:
        for policy, _, _ in continuous.POLICIES:
            caller = by_config[(model, policy, "caller")]
            loop = by_config[(model, policy, "continuous")]
            assert loop[col["throughput_rps"]] >= caller[col["throughput_rps"]]
            assert loop[col["p99_ms"]] <= caller[col["p99_ms"]]

    # and the headline pair clears real margins, not rounding noise
    caller = by_config[("treelstm", "deadline(5ms)", "caller")]
    loop = by_config[("treelstm", "deadline(5ms)", "continuous")]
    assert loop[col["throughput_rps"]] >= 1.05 * caller[col["throughput_rps"]]
    assert loop[col["p99_ms"]] <= 0.95 * caller[col["p99_ms"]]

    # equal traffic in, equal work out: both modes flush identical rounds
    # here (the win is intake overlap, not batch shaping)
    for model in continuous.MODELS:
        for policy, _, _ in continuous.POLICIES:
            caller = by_config[(model, policy, "caller")]
            loop = by_config[(model, policy, "continuous")]
            assert loop[col["launches"]] == caller[col["launches"]]
