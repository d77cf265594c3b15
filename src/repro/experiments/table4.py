"""Table 4: Relay-VM interpretation vs ACROBAT's AOT compilation.

Reproduces the comparison of §7.2 for TreeLSTM, MV-RNN and BiRNN: the same
lazy auto-batching runtime driven either by the tree-walking interpreter
(``aot=False``) or by the AOT-generated program.  Expected shape: AOT is
several times faster, and the gap is largest for the models with the most
control flow per tensor operation.
"""

from __future__ import annotations

from typing import List, Tuple

from .harness import ExperimentScale, current_scale, format_table, publish, resolve_size_name, run_acrobat, run_vm

MODELS = ("treelstm", "mvrnn", "birnn")
HEADERS = ("model", "size", "batch", "vm_ms", "aot_ms", "vm_over_aot")


def run(scale: ExperimentScale | None = None) -> Tuple[Tuple[str, ...], List[List]]:
    scale = scale or current_scale()
    rows: List[List] = []
    for model in MODELS:
        for size_name in scale.size_names:
            build_size = resolve_size_name(scale, size_name)
            for batch in scale.batch_sizes:
                vm_stats = run_vm(model, build_size, batch, seed=scale.seed)
                aot_stats = run_acrobat(model, build_size, batch, seed=scale.seed)
                rows.append(
                    [
                        model,
                        size_name,
                        batch,
                        vm_stats.latency_ms,
                        aot_stats.latency_ms,
                        vm_stats.latency_ms / max(aot_stats.latency_ms, 1e-9),
                    ]
                )
    return HEADERS, rows


def main() -> str:
    headers, rows = run()
    text = format_table(headers, rows, title="Table 4: Relay VM vs ACROBAT AOT (inference latency, ms)")
    return publish("table4", text)


if __name__ == "__main__":
    main()
