"""Benchmark regenerating Figure 5: speedup over eager execution vs batch size."""

from collections import defaultdict

from repro.experiments.tables import FIGURE5


def test_figure5_speedup_over_eager(benchmark):
    headers, rows = benchmark.pedantic(FIGURE5.run, rounds=1, iterations=1)
    FIGURE5.publish(rows)
    # shape check: auto-batching always wins, and larger batches expose more
    # batch parallelism (compared via the per-series peak to be robust to
    # single-run timing noise)
    series = defaultdict(dict)
    for model, size, batch, _, _, speedup in rows:
        series[(model, size)][batch] = speedup
    for key, by_batch in series.items():
        batches = sorted(by_batch)
        assert by_batch[batches[-1]] > 1.0, key
        assert max(by_batch.values()) > by_batch[batches[0]], key
    largest = [by_batch[sorted(by_batch)[-1]] for by_batch in series.values()]
    smallest = [by_batch[sorted(by_batch)[0]] for by_batch in series.values()]
    assert sum(largest) / len(largest) > sum(smallest) / len(smallest)
