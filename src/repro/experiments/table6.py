"""Table 6: where the time goes — runtime activity breakdown.

For TreeLSTM (small) and BiRNN (large) at the largest batch size, reports
the per-activity breakdown for DyNet and ACROBAT: DFG construction,
scheduling, memory copies/gathers, simulated GPU kernel time, number of
kernel calls and CUDA-API time.  Expected shape: ACROBAT's DFG-construction
and scheduling costs are a small fraction of DyNet's, and it launches far
fewer kernels.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..runtime.executor import RunStats
from .harness import ExperimentScale, current_scale, format_table, publish, resolve_size_name, run_acrobat, run_dynet

HEADERS = ("activity", "treelstm_dynet", "treelstm_acrobat", "birnn_dynet", "birnn_acrobat")

ACTIVITIES = (
    "DFG construction (ms)",
    "Scheduling (ms)",
    "Memory planning (ms)",
    "Memory copy time (ms)",
    "Output materialization (ms)",
    "GPU kernel time (ms)",
    "#Kernel calls",
    "#Gather launches",
    "CUDA API time (ms)",
)


def _breakdown(stats: RunStats) -> Dict[str, float]:
    return {
        "DFG construction (ms)": stats.host_ms.get("dfg_construction", 0.0),
        "Scheduling (ms)": stats.host_ms.get("scheduling", 0.0),
        "Memory planning (ms)": stats.host_ms.get("memory_planning", 0.0),
        "Memory copy time (ms)": (
            stats.device.get("gather_time_us", 0.0) + stats.device.get("memcpy_time_us", 0.0)
        )
        / 1e3,
        "Output materialization (ms)": stats.host_ms.get("materialize", 0.0),
        "GPU kernel time (ms)": (
            stats.device.get("kernel_time_us", 0.0) + stats.device.get("gather_time_us", 0.0)
        )
        / 1e3,
        "#Kernel calls": stats.kernel_calls,
        "#Gather launches": stats.device.get("num_gather_launches", 0),
        "CUDA API time (ms)": stats.api_time_ms + stats.host_ms.get("dispatch", 0.0),
    }


def run(scale: ExperimentScale | None = None) -> Tuple[Tuple[str, ...], List[List]]:
    scale = scale or current_scale()
    batch = scale.batch_sizes[-1]
    configs = [
        ("treelstm", resolve_size_name(scale, scale.size_names[0])),
        ("birnn", resolve_size_name(scale, scale.size_names[-1])),
    ]
    breakdowns = []
    for model, size_name in configs:
        dynet_stats = run_dynet(model, size_name, batch, seed=scale.seed)
        acrobat_stats = run_acrobat(model, size_name, batch, seed=scale.seed)
        breakdowns.append((_breakdown(dynet_stats), _breakdown(acrobat_stats)))

    rows: List[List] = []
    for activity in ACTIVITIES:
        rows.append(
            [
                activity,
                breakdowns[0][0][activity],
                breakdowns[0][1][activity],
                breakdowns[1][0][activity],
                breakdowns[1][1][activity],
            ]
        )
    return HEADERS, rows


def main() -> str:
    headers, rows = run()
    text = format_table(
        headers, rows, title="Table 6: runtime activity breakdown (DyNet vs ACROBAT, largest batch)"
    )
    return publish("table6", text)


if __name__ == "__main__":
    main()
