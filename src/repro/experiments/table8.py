"""Table 8: Cortex vs ACROBAT on the recursive models.

Cortex is hand-specialized for recursion: fully fused level-synchronous
kernels and near-zero runtime overhead, at the price of generality and
developer effort.  Expected shape: Cortex is somewhat faster than ACROBAT on
TreeLSTM and BiRNN, and much slower on MV-RNN where its restrictive
interface forces extra copies of the per-leaf embedding matrices.
"""

from __future__ import annotations

from typing import List, Tuple

from .harness import (
    ExperimentScale,
    current_scale,
    format_table,
    publish,
    resolve_size_name,
    run_acrobat,
    run_cortex,
)

MODELS = ("treelstm", "mvrnn", "birnn")
HEADERS = ("model", "size", "batch", "cortex_ms", "acrobat_ms", "cortex_over_acrobat")


def run(scale: ExperimentScale | None = None) -> Tuple[Tuple[str, ...], List[List]]:
    scale = scale or current_scale()
    rows: List[List] = []
    for model in MODELS:
        for size_name in scale.size_names:
            build_size = resolve_size_name(scale, size_name)
            for batch in scale.batch_sizes:
                cx = run_cortex(model, build_size, batch, seed=scale.seed)
                ab = run_acrobat(model, build_size, batch, seed=scale.seed)
                rows.append(
                    [
                        model,
                        size_name,
                        batch,
                        cx.latency_ms,
                        ab.latency_ms,
                        cx.latency_ms / max(ab.latency_ms, 1e-9),
                    ]
                )
    return HEADERS, rows


def main() -> str:
    headers, rows = run()
    text = format_table(headers, rows, title="Table 8: Cortex vs ACROBAT (inference latency, ms)")
    return publish("table8", text)


if __name__ == "__main__":
    main()
