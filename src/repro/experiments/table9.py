"""Table 9: benefit of PGO-derived operator priorities in auto-scheduling.

NestedRNN (small, batch 8 at paper scale): sweep the total auto-scheduling
trial budget and compare end-to-end latency when the budget is split
uniformly across kernels (static estimate) vs proportionally to profiled
invocation counts (PGO).  Because the inner RNN's kernels execute an order
of magnitude more often than the outer GRU's, PGO reaches a good schedule
for the kernels that matter with a much smaller budget — the gap closes as
the budget grows, as in the paper.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.api import compile_model
from ..compiler.options import CompilerOptions
from ..kernels.autoscheduler import auto_schedule
from .harness import (
    ExperimentScale,
    best_stats,
    build_model,
    current_scale,
    format_table,
    make_instances,
    publish,
    resolve_size_name,
)

HEADERS = (
    "trials",
    "latency_no_pgo_ms",
    "latency_pgo_ms",
    "pgo_benefit",
    "device_no_pgo_ms",
    "device_pgo_ms",
)
DEFAULT_BUDGETS = (100, 250, 500, 750, 1000)


def run(
    scale: ExperimentScale | None = None,
    budgets: Tuple[int, ...] = DEFAULT_BUDGETS,
    batch_size: int | None = None,
) -> Tuple[Tuple[str, ...], List[List]]:
    scale = scale or current_scale()
    size_name = resolve_size_name(scale, "small")
    batch = batch_size or scale.batch_sizes[0]
    mod, params, size = build_model("nestedrnn", size_name, scale.seed)
    instances = make_instances("nestedrnn", mod, size, batch, scale.seed)

    rows: List[List] = []
    for budget in budgets:
        latencies = {}
        device = {}
        for use_pgo in (False, True):
            compiled = compile_model(mod, params, CompilerOptions())
            auto_schedule(
                compiled,
                total_trials=budget,
                use_pgo=use_pgo,
                sample_instances=instances if use_pgo else None,
                seed=scale.seed,
            )
            # best-of-N measurement (REPRO_BEST_OF): latency is real host
            # wall-clock plus simulated device time, so a one-off scheduler
            # preemption would otherwise distort the PGO comparison
            stats = best_stats(lambda: compiled.run(instances)[1])
            latencies[use_pgo] = stats.latency_ms
            # auto-scheduling only writes the device simulator's schedule
            # table, so the simulated device time is the part of the latency
            # PGO can move — and it is deterministic
            device[use_pgo] = stats.device_total_ms
        rows.append(
            [
                budget,
                latencies[False],
                latencies[True],
                latencies[False] / max(latencies[True], 1e-9),
                device[False],
                device[True],
            ]
        )
    return HEADERS, rows


def main() -> str:
    headers, rows = run()
    text = format_table(
        headers, rows, title="Table 9: auto-scheduling with and without PGO priorities (NestedRNN)"
    )
    return publish("table9", text)


if __name__ == "__main__":
    main()
