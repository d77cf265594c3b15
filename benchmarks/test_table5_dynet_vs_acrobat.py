"""Benchmark regenerating Table 5: DyNet vs ACROBAT latencies and speedups."""

from repro.experiments.tables import TABLE5, geometric_mean_speedup


def test_table5_dynet_vs_acrobat(benchmark):
    headers, rows = benchmark.pedantic(TABLE5.run, rounds=1, iterations=1)
    TABLE5.publish(rows)
    gm = geometric_mean_speedup(rows)
    # shape check: ACROBAT wins overall (paper: 2.3x geomean)
    assert gm > 1.0
    # ...and clearly on the control-flow-heavy recursive models
    tree_rows = [r for r in rows if r[0] in ("treelstm", "mvrnn")]
    assert all(r[-1] > 1.0 for r in tree_rows)
