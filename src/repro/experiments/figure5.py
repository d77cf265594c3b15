"""Figure 5: speedup over eager (PyTorch-style) execution vs batch size.

TreeLSTM, MV-RNN and BiRNN, small and large sizes, batch sizes sweeping up
to 128 at paper scale.  Expected shape: speedups grow with batch size (more
batch parallelism for ACROBAT to exploit, none for the eager baseline) and
are smaller for the large model size, where individual kernels already
saturate the device.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .harness import (
    ExperimentScale,
    current_scale,
    format_table,
    publish,
    resolve_size_name,
    run_acrobat,
    run_eager,
)

MODELS = ("treelstm", "mvrnn", "birnn")
HEADERS = ("model", "size", "batch", "eager_ms", "acrobat_ms", "speedup")
PAPER_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128)
REDUCED_BATCHES = (1, 2, 4, 8, 16)


def run(
    scale: ExperimentScale | None = None, batches: Sequence[int] | None = None
) -> Tuple[Tuple[str, ...], List[List]]:
    scale = scale or current_scale()
    if batches is None:
        batches = REDUCED_BATCHES if scale.name == "reduced" else PAPER_BATCHES
    rows: List[List] = []
    for model in MODELS:
        for size_name in scale.size_names:
            build_size = resolve_size_name(scale, size_name)
            for batch in batches:
                eager_stats = run_eager(model, build_size, batch, seed=scale.seed)
                acro_stats = run_acrobat(model, build_size, batch, seed=scale.seed)
                rows.append(
                    [
                        model,
                        size_name,
                        batch,
                        eager_stats.latency_ms,
                        acro_stats.latency_ms,
                        eager_stats.latency_ms / max(acro_stats.latency_ms, 1e-9),
                    ]
                )
    return HEADERS, rows


def main() -> str:
    headers, rows = run()
    text = format_table(
        headers, rows, title="Figure 5: speedup over eager (no auto-batching) execution vs batch size"
    )
    return publish("figure5", text)


if __name__ == "__main__":
    main()
