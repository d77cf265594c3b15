"""Benchmark regenerating Table 7: DyNet vs DyNet++ vs ACROBAT."""

from repro.experiments.tables import TABLE7


def test_table7_dynet_improved(benchmark):
    headers, rows = benchmark.pedantic(TABLE7.run, rounds=1, iterations=1)
    TABLE7.publish(rows)
    # shape check: on MV-RNN the heuristic fix recovers a large part of the gap
    mv = [r for r in rows if r[0] == "mvrnn"]
    assert all(r[4] <= r[3] * 1.05 for r in mv)  # DN++ no slower than DN
    # ACROBAT remains the fastest of the three overall
    import numpy as np
    assert np.mean([r[5] for r in rows]) <= np.mean([r[4] for r in rows])
