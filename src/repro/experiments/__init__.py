"""Experiment drivers that regenerate every table and figure of the paper's
evaluation (§7).  Each module exposes ``run()`` returning (headers, rows) and
``main()`` printing the formatted table and saving it under
``benchmarks/results/``; they can also be run directly, e.g.
``python -m repro.experiments.table5``.  The deterministic serving
experiments share one runner (:mod:`repro.experiments.runner`).

Set ``REPRO_SCALE=paper`` to use the paper's model sizes and batch sizes
(slower); the default ``reduced`` scale regenerates everything in minutes.
"""

from . import (
    continuous,
    figure5,
    figure6,
    generation,
    multiloop,
    serving,
    sharding,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from .harness import (
    PAPER,
    REDUCED,
    ExperimentScale,
    current_scale,
    format_table,
    run_acrobat,
    run_cortex,
    run_dynet,
    run_eager,
    run_vm,
    save_result,
)

ALL_EXPERIMENTS = {
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "table8": table8,
    "table9": table9,
    "figure5": figure5,
    "figure6": figure6,
    "serving": serving,
    "sharding": sharding,
    "continuous": continuous,
    "generation": generation,
    "multiloop": multiloop,
}

__all__ = [
    "table4", "table5", "table6", "table7", "table8", "table9",
    "figure5", "figure6", "serving", "sharding", "continuous",
    "generation", "multiloop",
    "ALL_EXPERIMENTS",
    "ExperimentScale", "REDUCED", "PAPER", "current_scale",
    "run_acrobat", "run_dynet", "run_eager", "run_vm", "run_cortex",
    "format_table", "save_result",
]
