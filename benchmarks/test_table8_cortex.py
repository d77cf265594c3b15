"""Benchmark regenerating Table 8: Cortex vs ACROBAT."""

from repro.experiments.tables import TABLE8


def test_table8_cortex(benchmark):
    headers, rows = benchmark.pedantic(TABLE8.run, rounds=1, iterations=1)
    TABLE8.publish(rows)
    # shape check: Cortex (hand-specialized) is at least competitive on
    # TreeLSTM/BiRNN but loses on MV-RNN due to forced embedding copies
    mv = [r for r in rows if r[0] == "mvrnn"]
    other = [r for r in rows if r[0] != "mvrnn"]
    assert all(r[-1] > 1.0 for r in mv)
    assert all(r[-1] < 1.5 for r in other)
