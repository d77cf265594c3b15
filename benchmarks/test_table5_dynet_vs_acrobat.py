"""Benchmark regenerating Table 5: DyNet vs ACROBAT latencies and speedups."""

from repro.experiments import table5
from repro.experiments.harness import format_table, save_result


def test_table5_dynet_vs_acrobat(benchmark):
    headers, rows = benchmark.pedantic(table5.run, rounds=1, iterations=1)
    text = format_table(headers, rows, title="Table 5: DyNet vs ACROBAT (ms)")
    gm = table5.geometric_mean_speedup(rows)
    text += f"\n\nGeometric-mean speedup over DyNet: {gm:.2f}x"
    text += "\n\n" + table5.NOTE
    save_result("table5", text)
    print("\n" + text)
    # shape check: ACROBAT wins overall (paper: 2.3x geomean)
    assert gm > 1.0
    # ...and clearly on the control-flow-heavy recursive models
    tree_rows = [r for r in rows if r[0] in ("treelstm", "mvrnn")]
    assert all(r[-1] > 1.0 for r in tree_rows)
