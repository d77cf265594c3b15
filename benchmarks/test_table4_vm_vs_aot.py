"""Benchmark regenerating Table 4: Relay-VM vs AOT compilation latency."""

from repro.experiments.tables import TABLE4


def test_table4_vm_vs_aot(benchmark):
    headers, rows = benchmark.pedantic(TABLE4.run, rounds=1, iterations=1)
    TABLE4.publish(rows)
    # shape check: AOT must beat the interpreter in every configuration
    assert all(row[-1] > 1.0 for row in rows)
