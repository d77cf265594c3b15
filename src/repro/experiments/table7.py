"""Table 7: how far hand-fixing DyNet's heuristics closes the gap.

For TreeLSTM, MV-RNN and DRNN: stock DyNet (DN), DyNet with the paper's
manual improvements (DN++ — better matmul batching heuristic, batched
argmax/broadcast-mul, constant reuse, manual instance parallelism), and
ACROBAT.  Expected shape: DN++ recovers part of the gap (most of it for
MV-RNN, whose slowdown was purely the matmul heuristic) but ACROBAT stays
ahead thanks to its static optimizations.
"""

from __future__ import annotations

from typing import List, Tuple

from ..baselines import DyNetImprovements
from .harness import (
    ExperimentScale,
    current_scale,
    format_table,
    publish,
    resolve_size_name,
    run_acrobat,
    run_dynet,
)

MODELS = ("treelstm", "mvrnn", "drnn")
HEADERS = ("model", "size", "batch", "dynet_ms", "dynet_improved_ms", "acrobat_ms")


def run(scale: ExperimentScale | None = None) -> Tuple[Tuple[str, ...], List[List]]:
    scale = scale or current_scale()
    rows: List[List] = []
    for model in MODELS:
        for size_name in scale.size_names:
            build_size = resolve_size_name(scale, size_name)
            for batch in scale.batch_sizes:
                dn = run_dynet(model, build_size, batch, seed=scale.seed)
                dnpp = run_dynet(
                    model,
                    build_size,
                    batch,
                    improvements=DyNetImprovements.improved(),
                    seed=scale.seed,
                )
                ab = run_acrobat(model, build_size, batch, seed=scale.seed)
                rows.append(
                    [model, size_name, batch, dn.latency_ms, dnpp.latency_ms, ab.latency_ms]
                )
    return HEADERS, rows


def main() -> str:
    headers, rows = run()
    text = format_table(headers, rows, title="Table 7: DyNet (DN) vs improved DyNet (DN++) vs ACROBAT (AB), ms")
    return publish("table7", text)


if __name__ == "__main__":
    main()
