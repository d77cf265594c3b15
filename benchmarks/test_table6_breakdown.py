"""Benchmark regenerating Table 6: runtime activity breakdown."""

from repro.experiments.tables import TABLE6


def test_table6_breakdown(benchmark):
    headers, rows = benchmark.pedantic(TABLE6.run, rounds=1, iterations=1)
    TABLE6.publish(rows)
    by_activity = {row[0]: row[1:] for row in rows}
    # ACROBAT's scheduling cost is a fraction of DyNet's (both configurations)
    sched = by_activity["Scheduling (ms)"]
    assert sched[1] < sched[0]
    assert sched[3] < sched[2]
    # ACROBAT launches far fewer kernels
    calls = by_activity["#Kernel calls"]
    assert calls[1] < calls[0]
    assert calls[3] < calls[2]
