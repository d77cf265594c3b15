"""Benchmark regenerating Table 9: PGO-guided auto-scheduling."""

from repro.experiments import table9
from repro.experiments.harness import format_table, save_result


def test_table9_pgo(benchmark):
    headers, rows = benchmark.pedantic(
        table9.run, kwargs={"budgets": (100, 250, 500, 750, 1000)}, rounds=1, iterations=1
    )
    text = format_table(headers, rows, title="Table 9: auto-scheduling with/without PGO (NestedRNN)")
    save_result("table9", text)
    print("\n" + text)
    # shape check: at the smallest budget PGO is at least as good as the
    # uniform static allocation.  Auto-scheduling only writes the device
    # simulator's schedule table, so the claim lives in the simulated device
    # time — deterministic, hence asserted exactly; the latency columns add
    # measured host wall time and are reported, not asserted
    col = {name: i for i, name in enumerate(headers)}
    assert rows[0][col["device_pgo_ms"]] <= rows[0][col["device_no_pgo_ms"]]
